#include "magic/replica_pool.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "magic/classifier.hpp"
#include "magic/core_test_util.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace magic::core {
namespace {

using testing::make_graph;
using testing::separable_dataset;

DgcnnConfig small_config() {
  DgcnnConfig cfg;
  cfg.graph_conv_channels = {8, 8};
  cfg.pooling = PoolingType::SortPooling;
  cfg.remaining = RemainingLayer::WeightedVertices;
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.1;
  return cfg;
}

TrainOptions fast_train() {
  TrainOptions opt;
  opt.epochs = 8;
  opt.batch_size = 8;
  opt.learning_rate = 3e-3;
  return opt;
}

MagicClassifier fitted_classifier(std::uint64_t seed) {
  MagicClassifier clf(small_config(), fast_train(), seed);
  clf.fit(separable_dataset(10, seed), 0.2);
  return clf;
}

TEST(ReplicaPool, UnfittedSourceThrows) {
  MagicClassifier unfitted(small_config());
  EXPECT_THROW(ReplicaPool pool(unfitted), std::logic_error);
  EXPECT_THROW(unfitted.replica_pool(), std::logic_error);
}

TEST(ReplicaPool, LeasesAreExclusiveAndReturnOnRelease) {
  MagicClassifier clf = fitted_classifier(40);
  ReplicaPool pool(clf);
  EXPECT_EQ(pool.size(), 0u);
  {
    const ReplicaPool::Lease a = pool.acquire();
    const ReplicaPool::Lease b = pool.acquire();
    ASSERT_TRUE(a.valid());
    ASSERT_TRUE(b.valid());
    EXPECT_NE(&*a, &*b);  // two live leases never share a replica
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.leased(), 2u);
  }
  EXPECT_EQ(pool.leased(), 0u);
  // Released replicas are reused, not re-materialized.
  const ReplicaPool::Lease again = pool.acquire();
  EXPECT_EQ(pool.size(), 2u);
}

TEST(ReplicaPool, WarmMaterializesEagerly) {
  MagicClassifier clf = fitted_classifier(41);
  ReplicaPool pool(clf, 3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.leased(), 0u);
  pool.warm(2);  // never shrinks
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ReplicaPool, ReplicasPredictIdenticallyToSource) {
  MagicClassifier clf = fitted_classifier(42);
  ReplicaPool pool(clf, 2);
  util::Rng rng(43);
  for (int label = 0; label < 2; ++label) {
    const acfg::Acfg g = make_graph(label, 7, label == 0, rng);
    const Prediction direct = clf.predict(g);
    const ReplicaPool::Lease replica = pool.acquire();
    const Prediction cloned = replica->predict(g);
    EXPECT_EQ(cloned.family_index, direct.family_index);
    ASSERT_EQ(cloned.probabilities.size(), direct.probabilities.size());
    for (std::size_t c = 0; c < direct.probabilities.size(); ++c) {
      EXPECT_DOUBLE_EQ(cloned.probabilities[c], direct.probabilities[c]);
    }
  }
}

TEST(MagicClassifier, ReplicaPoolCachedAcrossPredictBatchCalls) {
  MagicClassifier clf = fitted_classifier(44);
  const PredictOptions options{.threads = 2, .engine = PredictEngine::PerSample};
  util::Rng rng(45);
  std::vector<acfg::Acfg> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(make_graph(i % 2, 6, i % 2 == 0, rng));

  const auto first = clf.classify(batch, options);
  const std::shared_ptr<ReplicaPool> cached = clf.replica_pool();
  ASSERT_NE(cached, nullptr);
  EXPECT_GE(cached->size(), 1u);

  const auto second = clf.classify(batch, options);
  // Same pool object: no re-serialization on the second call.
  EXPECT_EQ(clf.replica_pool().get(), cached.get());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].family_index, second[i].family_index);
  }
}

TEST(MagicClassifier, RefitInvalidatesCachedReplicaPool) {
  MagicClassifier clf = fitted_classifier(46);
  const std::shared_ptr<ReplicaPool> before =
      clf.replica_pool(ReplicaPoolOptions{.warm_count = 1});
  clf.fit(separable_dataset(10, 47), 0.2);
  const std::shared_ptr<ReplicaPool> after =
      clf.replica_pool(ReplicaPoolOptions{.warm_count = 1});
  EXPECT_NE(before.get(), after.get());  // stale clones must not survive a retrain
  // The old pool stays usable for whoever still holds it (shared_ptr), and
  // the new pool reflects the new weights.
  util::Rng rng(48);
  const acfg::Acfg g = make_graph(0, 6, true, rng);
  const ReplicaPool::Lease replica = after->acquire();
  EXPECT_EQ(replica->predict(g).family_index, clf.predict(g).family_index);
}

TEST(DgcnnModel, ConcurrentForwardOnOneInstanceThrowsInCheckedBuild) {
  MagicClassifier clf = fitted_classifier(49);
  util::Rng rng(50);
  // Big enough that the first forward is still running when the second
  // thread enters it.
  const acfg::Acfg big = make_graph(0, 4000, true, rng);
  const acfg::Acfg small = make_graph(0, 6, true, rng);

  EXPECT_FALSE(clf.model()->forward_in_flight());
  clf.model()->set_training(false);
  std::thread first([&] { (void)clf.model()->forward(big); });
  // Wait for the first forward to actually be in flight (the 4000-vertex
  // pass runs for many milliseconds; bound the wait anyway).
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool observed = false;
  while (std::chrono::steady_clock::now() < give_up) {
    if (clf.model()->forward_in_flight()) {
      observed = true;
      break;
    }
    std::this_thread::yield();
  }
  if (observed) {
    // Entering forward on the same instance from this thread must trip the
    // guard before any layer state is touched.
    EXPECT_THROW((void)clf.model()->forward(small), util::CheckError);
  }
  first.join();
  EXPECT_FALSE(clf.model()->forward_in_flight());
  // The guard clears with the owning forward: the model is usable again.
  EXPECT_NO_THROW((void)clf.predict(small));
}

}  // namespace
}  // namespace magic::core
