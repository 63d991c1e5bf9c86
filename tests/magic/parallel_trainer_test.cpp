#include "magic/parallel_trainer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <vector>

#include "magic/core_test_util.hpp"
#include "tensor/simd/dispatch.hpp"

namespace magic::core {
namespace {

namespace simd = magic::tensor::simd;
using testing::make_graph;
using testing::separable_dataset;

DgcnnConfig small_config() {
  DgcnnConfig cfg;
  cfg.num_classes = 2;
  cfg.graph_conv_channels = {8, 8};
  cfg.pooling = PoolingType::SortPooling;
  cfg.remaining = RemainingLayer::WeightedVertices;
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.1;  // nonzero: exercises per-sample mask reseeding
  return cfg;
}

/// Table II "Best Model for MSKCFG": AdaptivePooling, ratio 0.64,
/// gc = (128, 64, 32, 32), 16 Conv2D channels, dropout 0.1.
DgcnnConfig mskcfg_amp_config(std::size_t num_classes) {
  DgcnnConfig cfg;
  cfg.num_classes = num_classes;
  cfg.graph_conv_channels = {128, 64, 32, 32};
  cfg.pooling = PoolingType::AdaptivePooling;
  cfg.pooling_ratio = 0.64;
  cfg.conv2d_channels = 16;
  cfg.dropout_rate = 0.1;
  return cfg;
}

TrainOptions fast_train(std::size_t epochs, std::size_t threads) {
  TrainOptions opt;
  opt.epochs = epochs;
  opt.batch_size = 8;
  opt.learning_rate = 3e-3;
  opt.weight_decay = 1e-4;
  opt.seed = 5;
  opt.threads = threads;
  return opt;
}

struct TrainRun {
  TrainResult result;
  std::vector<nn::Tensor> params;
};

TrainRun train_with_threads(std::size_t threads, std::size_t batch_size = 8,
                            const DgcnnConfig& config = small_config()) {
  data::Dataset d = separable_dataset(12, 1);
  std::vector<std::size_t> train_idx, val_idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    (i % 5 == 0 ? val_idx : train_idx).push_back(i);
  }
  util::Rng rng(2);
  DgcnnModel model(config, rng, 6);
  TrainOptions opt = fast_train(4, threads);
  opt.batch_size = batch_size;
  TrainRun run;
  run.result = train_model(model, d, train_idx, val_idx, opt);
  for (nn::Parameter* p : model.parameters()) run.params.push_back(p->value);
  return run;
}

void expect_bitwise_equal(const TrainRun& a, const TrainRun& b) {
  ASSERT_EQ(a.result.history.size(), b.result.history.size());
  for (std::size_t e = 0; e < a.result.history.size(); ++e) {
    // EXPECT_EQ on doubles: bitwise identity, not approximate agreement.
    EXPECT_EQ(a.result.history[e].train_loss, b.result.history[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(a.result.history[e].validation_loss,
              b.result.history[e].validation_loss)
        << "epoch " << e;
    EXPECT_EQ(a.result.history[e].validation_accuracy,
              b.result.history[e].validation_accuracy)
        << "epoch " << e;
  }
  EXPECT_EQ(a.result.best_validation_loss, b.result.best_validation_loss);
  EXPECT_EQ(a.result.best_epoch, b.result.best_epoch);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    ASSERT_TRUE(a.params[i].same_shape(b.params[i]));
    for (std::size_t j = 0; j < a.params[i].size(); ++j) {
      EXPECT_EQ(a.params[i][j], b.params[i][j])
          << "param " << i << " element " << j;
    }
  }
}

TEST(ParallelTrainer, BitwiseIdenticalAcrossThreadCounts) {
  for (const DgcnnConfig& config : {small_config(), mskcfg_amp_config(2)}) {
    SCOPED_TRACE(config.pooling == PoolingType::AdaptivePooling ? "AMP" : "SortPooling");
    const TrainRun serial = train_with_threads(1, 8, config);
    const TrainRun two = train_with_threads(2, 8, config);
    const TrainRun four = train_with_threads(4, 8, config);
    expect_bitwise_equal(serial, two);
    expect_bitwise_equal(serial, four);
  }
}

TEST(ParallelTrainer, FullBatchModeIsAlsoThreadCountInvariant) {
  // batch_size == 0 means one full-batch step per epoch.
  const TrainRun serial = train_with_threads(1, 0);
  const TrainRun four = train_with_threads(4, 0);
  expect_bitwise_equal(serial, four);
}

TEST(ParallelTrainer, ParallelEvaluateMatchesSerial) {
  data::Dataset d = separable_dataset(10, 3);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < d.size(); ++i) idx.push_back(i);
  util::Rng rng(4);
  DgcnnModel model(small_config(), rng, 6);
  const EvalResult serial = evaluate_model(model, d, idx);
  const EvalResult parallel = evaluate_model(model, d, idx, 4);
  EXPECT_EQ(serial.mean_log_loss, parallel.mean_log_loss);
  ASSERT_EQ(serial.probabilities.size(), parallel.probabilities.size());
  for (std::size_t i = 0; i < serial.probabilities.size(); ++i) {
    EXPECT_EQ(serial.probabilities[i], parallel.probabilities[i]) << "row " << i;
  }
  EXPECT_EQ(serial.labels, parallel.labels);
  EXPECT_EQ(serial.confusion.accuracy(), parallel.confusion.accuracy());
  EXPECT_EQ(serial.confusion.total(), parallel.confusion.total());
}

TEST(ParallelTrainer, ZeroThreadsResolvesToHardwareConcurrency) {
  // threads == 0 trains on all cores and must still match the serial run.
  const TrainRun serial = train_with_threads(1);
  const TrainRun automatic = train_with_threads(0);
  expect_bitwise_equal(serial, automatic);
}

// ---- Golden trajectory --------------------------------------------------------
//
// The trainer's schedule (which lane runs which sample, how the gradient
// reduce and the optimizer step are split across threads) may change; the
// arithmetic may not. These are the exact bits of a training run of the
// MSKCFG-best AMP model on a heavy-tailed graph-size mix, so any change to
// the order of a floating-point operation in the trainer or the optimizer
// shows here, whatever the thread count.
//
// The values are a property of the build, not only of the source: they
// hold for GCC on x86-64 with the SIMD dispatch pinned to the scalar
// kernels, once for builds that let the compiler emit FMA instructions
// (the default -march=native on an FMA host) and once for builds that
// cannot (MAGIC_NATIVE_ARCH=OFF, as the sanitizer builds use).

/// FNV-1a over 64-bit words.
class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// 40 graphs over three families whose vertex counts are log-uniform in
/// [4, 240): most graphs are small and a few are large, like the p10 / p50 /
/// p90 spread of a real corpus, so lanes get very unequal work.
data::Dataset heavy_tailed_dataset() {
  data::Dataset d;
  d.family_names = {"arith_chain", "mov_star", "mov_chain"};
  util::Rng rng(31);
  for (std::size_t i = 0; i < 40; ++i) {
    const auto n = static_cast<std::size_t>(4.0 * std::exp(rng.uniform(0.0, std::log(60.0))));
    const int label = static_cast<int>(i % 3);
    d.samples.push_back(make_graph(label, n, label != 1, rng));
  }
  return d;
}

struct GoldenRun {
  std::vector<std::uint64_t> loss_bits;  // train, validation loss per epoch
  std::uint64_t params_hash = 0;
};

GoldenRun golden_run(std::size_t threads, std::size_t batch_size, bool balance) {
  const data::Dataset d = heavy_tailed_dataset();
  std::vector<std::size_t> train_idx, val_idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    (i % 8 == 0 ? val_idx : train_idx).push_back(i);
  }
  util::Rng rng(19);
  DgcnnModel model(mskcfg_amp_config(d.num_families()), rng);
  TrainOptions opt;
  opt.epochs = 3;
  opt.batch_size = batch_size;
  opt.learning_rate = 3e-3;
  opt.weight_decay = 1e-4;
  opt.seed = 23;
  opt.threads = threads;
  opt.restore_best = false;
  opt.balance_families = balance;
  const TrainResult result = train_model(model, d, train_idx, val_idx, opt);
  GoldenRun run;
  for (const EpochStats& e : result.history) {
    run.loss_bits.push_back(std::bit_cast<std::uint64_t>(e.train_loss));
    run.loss_bits.push_back(std::bit_cast<std::uint64_t>(e.validation_loss));
  }
  Fnv fnv;
  for (nn::Parameter* p : model.parameters()) {
    for (std::size_t j = 0; j < p->value.size(); ++j) fnv.add(p->value[j]);
  }
  run.params_hash = fnv.value();
  return run;
}

struct Golden {
  const char* name;
  std::size_t batch_size;
  bool balance;
  std::vector<std::uint64_t> loss_bits;
  std::uint64_t params_hash;
};

#if defined(__FMA__)
const std::vector<Golden> kGolden = {
    {"batch 10", 10, false,
     {0x3ff28f6e56d51fd5ULL, 0x3ff1609be6534505ULL, 0x3ff16114e8db657eULL,
      0x3ff04724cfa49d56ULL, 0x3feffbda4ed1e8c2ULL, 0x3fe8b60eb00adebbULL},
     0xb779e1b9c146cbc5ULL},
    {"balanced families", 10, true,
     {0x3ff310861ee5c50fULL, 0x3ff0bee7696080d2ULL, 0x3ff11a0f31a926b4ULL,
      0x3ff08577445cf342ULL, 0x3ff009fb3caf0519ULL, 0x3fec858957e8b7b6ULL},
     0x0d49dcce9c2d9c76ULL},
    {"full batch", 0, false,
     {0x3ff19b5a465547d6ULL, 0x3ff168aa6e009110ULL, 0x3ff14fba744d04bdULL,
      0x3ff0f65e12e70b0eULL, 0x3ff0c99dfee32ae8ULL, 0x3fef6ebd31559820ULL},
     0xe659f8f9028309d6ULL},
};
#else
const std::vector<Golden> kGolden = {
    {"batch 10", 10, false,
     {0x3ff28f6e56d51fd4ULL, 0x3ff1609be6534505ULL, 0x3ff16114e8db6580ULL,
      0x3ff04724cfa49d55ULL, 0x3feffbda4ed1e8bcULL, 0x3fe8b60eb00adeb6ULL},
     0xd5d7bbb92f128582ULL},
    {"balanced families", 10, true,
     {0x3ff310861ee5c50fULL, 0x3ff0bee7696080d3ULL, 0x3ff11a0f31a926b4ULL,
      0x3ff08577445cf342ULL, 0x3ff009fb3caf0519ULL, 0x3fec858957e8b7b6ULL},
     0x3f862af266732207ULL},
    {"full batch", 0, false,
     {0x3ff19b5a465547d5ULL, 0x3ff168aa6e009112ULL, 0x3ff14fba744d04beULL,
      0x3ff0f65e12e70b0fULL, 0x3ff0c99dfee32aeaULL, 0x3fef6ebd31559823ULL},
     0x49980ee26fce7cfcULL},
};
#endif

void expect_golden(const Golden& golden, std::size_t threads) {
  SCOPED_TRACE(::testing::Message() << golden.name << ", " << threads << " threads");
  const GoldenRun run = golden_run(threads, golden.batch_size, golden.balance);
  ::testing::Message actual;
  actual << std::hex << "{";
  for (std::uint64_t bits : run.loss_bits) actual << "0x" << bits << "ULL, ";
  actual << "}, 0x" << run.params_hash << "ULL";
  EXPECT_EQ(run.loss_bits, golden.loss_bits) << "actual: " << actual;
  EXPECT_EQ(run.params_hash, golden.params_hash) << "actual: " << actual;
}

// Restores the probe-selected SIMD level even when an assertion fails.
class ScalarLevel {
 public:
  ScalarLevel() : original_(simd::active_level()) { simd::set_level(simd::SimdLevel::Scalar); }
  ~ScalarLevel() { simd::set_level(original_); }

 private:
  simd::SimdLevel original_;
};

TEST(ParallelTrainer, GoldenTrajectoryMskcfgAmp) {
#if !defined(__GNUC__) || defined(__clang__) || !defined(__x86_64__)
  GTEST_SKIP() << "golden bits were captured with GCC on x86-64";
#endif
  ScalarLevel scalar;
  for (std::size_t threads : {1, 3, 4}) expect_golden(kGolden[0], threads);
  expect_golden(kGolden[1], 4);
  expect_golden(kGolden[2], 4);
}

TEST(ParallelTrainer, PerSampleSeedIsPureAndPositionSensitive) {
  EXPECT_EQ(per_sample_seed(7, 0, 0), per_sample_seed(7, 0, 0));
  EXPECT_NE(per_sample_seed(7, 0, 0), per_sample_seed(7, 0, 1));
  EXPECT_NE(per_sample_seed(7, 0, 0), per_sample_seed(7, 1, 0));
  EXPECT_NE(per_sample_seed(7, 0, 0), per_sample_seed(8, 0, 0));
}

TEST(ParallelTrainer, BackwardAfterEvalForwardThrows) {
  data::Dataset d = separable_dataset(2, 9);
  util::Rng rng(10);
  DgcnnModel model(small_config(), rng, 6);
  model.set_training(false);
  const nn::Tensor log_probs = model.forward(d.samples[0]);
  nn::Tensor grad = nn::Tensor::zeros(log_probs.shape());
  grad[0] = 1.0;
  // Eval-mode forward skipped the backward caches: backward must fail
  // loudly instead of producing garbage gradients.
  EXPECT_THROW(model.backward(grad), std::logic_error);
  // Re-enabling grad caching (the explain() pattern) restores backward.
  model.set_grad_enabled(true);
  model.forward(d.samples[0]);
  EXPECT_NO_THROW(model.backward(grad));
}

}  // namespace
}  // namespace magic::core
