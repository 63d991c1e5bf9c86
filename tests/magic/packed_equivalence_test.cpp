// Equivalence suite for the packed-batch inference engine: classify() with
// PredictEngine::Packed must agree with PredictEngine::PerSample (and with
// the single-sample predict() wrapper) to 1e-9 relative tolerance across
// every model variant, graph-size mix (1..500 vertices, k smaller than the
// graph, edge-free graphs) and threading mode.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "magic/classifier.hpp"
#include "magic/core_test_util.hpp"
#include "magic/graph_batch.hpp"
#include "magic/replica_pool.hpp"

namespace magic::core {
namespace {

using testing::make_graph;
using testing::separable_dataset;

DgcnnConfig base_config() {
  DgcnnConfig cfg;
  cfg.graph_conv_channels = {8, 8};
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.1;
  return cfg;
}

DgcnnConfig sort_conv1d_config() {
  DgcnnConfig cfg = base_config();
  cfg.pooling = PoolingType::SortPooling;
  cfg.remaining = RemainingLayer::Conv1D;
  cfg.conv1d_channels_first = 4;
  cfg.conv1d_channels_second = 8;
  return cfg;
}

DgcnnConfig sort_wv_config() {
  DgcnnConfig cfg = base_config();
  cfg.pooling = PoolingType::SortPooling;
  cfg.remaining = RemainingLayer::WeightedVertices;
  return cfg;
}

DgcnnConfig amp_config() {
  DgcnnConfig cfg = base_config();
  cfg.pooling = PoolingType::AdaptivePooling;
  cfg.pooling_ratio = 0.3;
  cfg.conv2d_channels = 4;
  return cfg;
}

MagicClassifier fitted(const DgcnnConfig& cfg, std::uint64_t seed) {
  TrainOptions quick;
  quick.epochs = 3;
  quick.batch_size = 8;
  quick.learning_rate = 3e-3;
  MagicClassifier clf(cfg, quick, seed);
  clf.fit(separable_dataset(8, seed), 0.2);
  return clf;
}

/// Graph sizes spanning 1..500 vertices. Training graphs have 4..10
/// vertices, so the derived SortPooling k is at most 10 and every larger
/// entry exercises the k-smaller-than-graph truncation.
std::vector<acfg::Acfg> size_mix(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<acfg::Acfg> mix;
  const std::size_t sizes[] = {1, 2, 3, 5, 9, 23, 57, 140, 500};
  int label = 0;
  for (std::size_t n : sizes) {
    mix.push_back(make_graph(label % 2, n, /*chain=*/label % 2 == 0, rng));
    ++label;
  }
  // Edge-free graph: every vertex isolated (propagation = self-loops only).
  acfg::Acfg isolated = make_graph(0, 11, /*chain=*/true, rng);
  for (auto& edges : isolated.out_edges) edges.clear();
  mix.push_back(isolated);
  return mix;
}

void expect_match(const std::vector<Prediction>& got,
                  const std::vector<Prediction>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].family_index, want[i].family_index)
        << what << " sample " << i;
    EXPECT_EQ(got[i].family_name, want[i].family_name) << what << " sample " << i;
    ASSERT_EQ(got[i].probabilities.size(), want[i].probabilities.size());
    for (std::size_t c = 0; c < want[i].probabilities.size(); ++c) {
      const double a = got[i].probabilities[c];
      const double b = want[i].probabilities[c];
      // 1e-9 relative tolerance (probabilities live in [0, 1]).
      EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(b)))
          << what << " sample " << i << " class " << c;
    }
  }
}

class PackedEquivalence : public ::testing::TestWithParam<int> {
 protected:
  static DgcnnConfig config_for(int variant) {
    switch (variant) {
      case 0: return sort_conv1d_config();
      case 1: return sort_wv_config();
      default: return amp_config();
    }
  }
};

TEST_P(PackedEquivalence, PackedMatchesPerSampleAndPredict) {
  const MagicClassifier clf = fitted(config_for(GetParam()), 60 + GetParam());
  const std::vector<acfg::Acfg> mix = size_mix(61);

  PredictOptions per_sample;
  per_sample.engine = PredictEngine::PerSample;
  const std::vector<Prediction> baseline = clf.classify(mix, per_sample);

  // Every graph in one pack.
  PredictOptions packed;
  packed.engine = PredictEngine::Packed;
  packed.max_pack_vertices = 100000;
  expect_match(clf.classify(mix, packed), baseline, "one big pack");

  // Tight vertex budget: many packs, including one oversized graph that
  // must form its own single-graph pack.
  packed.max_pack_vertices = 64;
  expect_match(clf.classify(mix, packed), baseline, "budgeted packs");

  // The single-sample wrapper agrees sample by sample.
  for (std::size_t i = 0; i < mix.size(); ++i) {
    expect_match({clf.predict(mix[i])}, {baseline[i]}, "predict wrapper");
  }
}

TEST_P(PackedEquivalence, ThreadedClassifyMatchesSerial) {
  const MagicClassifier clf = fitted(config_for(GetParam()), 70 + GetParam());
  const std::vector<acfg::Acfg> mix = size_mix(71);

  PredictOptions serial;
  serial.threads = 1;
  serial.max_pack_vertices = 128;
  const std::vector<Prediction> baseline = clf.classify(mix, serial);

  PredictOptions threaded = serial;
  threaded.threads = 4;
  expect_match(clf.classify(mix, threaded), baseline, "4-thread packed");

  threaded.engine = PredictEngine::PerSample;
  PredictOptions serial_ps = serial;
  serial_ps.engine = PredictEngine::PerSample;
  expect_match(clf.classify(mix, threaded), clf.classify(mix, serial_ps),
               "4-thread per-sample");
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PackedEquivalence,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0: return "SortPoolConv1D";
                             case 1: return "SortPoolWeightedVertices";
                             default: return "AdaptiveMaxPooling";
                           }
                         });

// The paper's two best models (Table II) are AdaptivePooling ones, with
// grids of 6 (MSKCFG: ratio 0.64) and 3 (YANCFG: ratio 0.2). Graphs with
// fewer vertices than the grid side make every row window of the fused
// pre-pool stage clamp onto the same few rows; the packed path must still
// score each of them exactly like forward().
TEST(PackedEquivalence, AdaptivePoolingGraphsSmallerThanGridMatchForward) {
  DgcnnConfig mskcfg_best;  // Table II "Best Model for MSKCFG"
  mskcfg_best.pooling = PoolingType::AdaptivePooling;
  mskcfg_best.pooling_ratio = 0.64;
  mskcfg_best.graph_conv_channels = {128, 64, 32, 32};
  mskcfg_best.conv2d_channels = 16;
  mskcfg_best.dropout_rate = 0.1;
  DgcnnConfig yancfg_best = mskcfg_best;  // Table II "Best Model for YANCFG"
  yancfg_best.pooling_ratio = 0.2;
  yancfg_best.graph_conv_channels = {32, 32, 32, 32};
  yancfg_best.dropout_rate = 0.5;
  ASSERT_EQ(mskcfg_best.adaptive_grid(), 6u);
  ASSERT_EQ(yancfg_best.adaptive_grid(), 3u);

  for (const DgcnnConfig& cfg : {mskcfg_best, yancfg_best}) {
    util::Rng init(96);
    DgcnnModel model(cfg, init);
    model.set_training(false);
    util::Rng rng(97);
    std::vector<acfg::Acfg> graphs;
    for (std::size_t n : {1u, 2u, 1u, 5u, 2u, 46u}) {
      graphs.push_back(make_graph(static_cast<int>(n % 2), n, n % 2 == 0, rng));
    }
    const GraphBatch batch = GraphBatch::pack(std::span<const acfg::Acfg>(graphs));
    const nn::Tensor packed = model.predict_batch(batch);
    ASSERT_EQ(packed.dim(0), graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const nn::Tensor single = model.forward(graphs[i]);
      for (std::size_t c = 0; c < cfg.num_classes; ++c) {
        const double want = single[c];
        EXPECT_NEAR(packed[i * cfg.num_classes + c], want,
                    1e-9 * std::max(1.0, std::abs(want)))
            << cfg.describe() << " graph " << i << " (n="
            << graphs[i].num_vertices() << ") class " << c;
      }
    }
  }
}

// classify() is const and safe from many threads at once: every concurrent
// call must reproduce the single-threaded verdicts exactly.
TEST(PackedEquivalence, ConcurrentClassifyIsThreadSafe) {
  const MagicClassifier clf = fitted(sort_wv_config(), 80);
  const std::vector<acfg::Acfg> mix = size_mix(81);
  const std::vector<Prediction> baseline =
      clf.classify(mix, PredictOptions{.engine = PredictEngine::PerSample});

  constexpr int kCallers = 4;
  std::vector<std::vector<Prediction>> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      PredictOptions opt;
      opt.engine = t % 2 == 0 ? PredictEngine::Packed : PredictEngine::PerSample;
      opt.threads = 1 + static_cast<std::size_t>(t % 2);
      opt.max_pack_vertices = 96;
      results[static_cast<std::size_t>(t)] = clf.classify(mix, opt);
    });
  }
  for (auto& caller : callers) caller.join();
  for (int t = 0; t < kCallers; ++t) {
    expect_match(results[static_cast<std::size_t>(t)], baseline, "concurrent");
  }
}

TEST(PackedEquivalence, PredictPackedMatchesClassify) {
  const MagicClassifier clf = fitted(sort_wv_config(), 84);
  const std::vector<acfg::Acfg> mix = size_mix(85);
  const GraphBatch batch = GraphBatch::pack(std::span<const acfg::Acfg>(mix));
  expect_match(clf.predict_packed(batch),
               clf.classify(mix, PredictOptions{.engine = PredictEngine::PerSample}),
               "predict_packed");
}

// ---- Option and mode contracts -------------------------------------------

TEST(PackedEquivalence, ZeroPackBudgetThrowsForPackedEngineOnly) {
  const MagicClassifier clf = fitted(sort_wv_config(), 86);
  const std::vector<acfg::Acfg> mix = size_mix(87);
  PredictOptions bad;
  bad.max_pack_vertices = 0;
  EXPECT_THROW((void)clf.classify(mix, bad), std::invalid_argument);
  bad.engine = PredictEngine::PerSample;  // budget is a packed-engine knob
  EXPECT_NO_THROW((void)clf.classify(mix, bad));
}

TEST(PackedEquivalence, ClassifyEmptySpanReturnsEmpty) {
  const MagicClassifier clf = fitted(sort_wv_config(), 88);
  EXPECT_TRUE(clf.classify({}).empty());
}

TEST(PackedEquivalence, ClassifyUnfittedThrows) {
  const MagicClassifier clf(sort_wv_config());
  util::Rng rng(89);
  const std::vector<acfg::Acfg> one{make_graph(0, 5, true, rng)};
  EXPECT_THROW((void)clf.classify(one), std::logic_error);
  EXPECT_THROW((void)clf.predict_packed(
                   GraphBatch::pack(std::span<const acfg::Acfg>(one))),
               std::logic_error);
}

// predict_batch on the raw model is inference-only: while gradient caching
// is enabled there is no batched backward, so entering it must throw
// instead of silently corrupting training state.
TEST(PackedEquivalence, ModelPredictBatchRequiresEvalMode) {
  MagicClassifier clf = fitted(sort_wv_config(), 90);
  util::Rng rng(91);
  const std::vector<acfg::Acfg> one{make_graph(0, 5, true, rng)};
  const GraphBatch batch = GraphBatch::pack(std::span<const acfg::Acfg>(one));
  clf.model()->set_training(true);
  EXPECT_THROW((void)clf.model()->predict_batch(batch), std::logic_error);
  clf.model()->set_training(false);
  EXPECT_NO_THROW((void)clf.model()->predict_batch(batch));
}

TEST(PackedEquivalence, ModelPredictBatchRejectsChannelMismatch) {
  MagicClassifier clf = fitted(sort_wv_config(), 92);
  acfg::Acfg narrow;
  narrow.out_edges.assign(3, {});
  narrow.attributes = tensor::Tensor({3, 2});  // model expects 11 channels
  const std::vector<acfg::Acfg> graphs{narrow};
  const GraphBatch batch = GraphBatch::pack(std::span<const acfg::Acfg>(graphs));
  clf.model()->set_training(false);
  EXPECT_THROW((void)clf.model()->predict_batch(batch), std::invalid_argument);
}

// ---- Redesigned persistence + pool options surface ------------------------

TEST(PackedEquivalence, PathSaveLoadRoundTripPreservesClassify) {
  const MagicClassifier clf = fitted(sort_conv1d_config(), 93);
  const std::string path = ::testing::TempDir() + "/packed_equiv_model.txt";
  clf.save(path);
  const MagicClassifier restored = MagicClassifier::load(path);
  const std::vector<acfg::Acfg> mix = size_mix(94);
  expect_match(restored.classify(mix), clf.classify(mix), "path round trip");
}

TEST(PackedEquivalence, ReplicaPoolOptionsWarmsEagerly) {
  const MagicClassifier clf = fitted(sort_wv_config(), 95);
  const std::shared_ptr<ReplicaPool> pool =
      clf.replica_pool(ReplicaPoolOptions{.warm_count = 2});
  ASSERT_NE(pool, nullptr);
  EXPECT_GE(pool->size(), 2u);
  EXPECT_EQ(pool->leased(), 0u);
  // A later call without options shares the same cached pool.
  EXPECT_EQ(clf.replica_pool().get(), pool.get());
}

}  // namespace
}  // namespace magic::core
