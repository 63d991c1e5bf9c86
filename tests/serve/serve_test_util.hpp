#pragma once
// Shared fixture for the serve-layer tests: one small classifier trained on
// the synthetic separable dataset (trained once per process, the suites
// only ever read predictions from replicas), and the one-version model
// registry the front-end tests serve it through.

#include <memory>
#include <sstream>

#include "magic/classifier.hpp"
#include "magic/core_test_util.hpp"
#include "serve/registry.hpp"

namespace magic::serve::testing {

inline core::DgcnnConfig small_config() {
  core::DgcnnConfig cfg;
  cfg.graph_conv_channels = {8, 8};
  cfg.pooling = core::PoolingType::SortPooling;
  cfg.remaining = core::RemainingLayer::WeightedVertices;
  cfg.hidden_dim = 16;
  cfg.dropout_rate = 0.1;
  return cfg;
}

/// A fitted classifier over the two-family separable dataset. Trains on
/// first call and reuses the instance afterwards (serving tests only read).
inline core::MagicClassifier& shared_classifier() {
  static std::unique_ptr<core::MagicClassifier> clf = [] {
    core::TrainOptions train;
    train.epochs = 12;
    train.batch_size = 8;
    train.learning_rate = 3e-3;
    auto built = std::make_unique<core::MagicClassifier>(small_config(), train, 2);
    built->fit(core::testing::separable_dataset(12, 1), 0.2);
    return built;
  }();
  return *clf;
}

/// A one-version ModelRegistry ("v1") over a copy of shared_classifier():
/// the single-model daemon, as magicd serves one --model checkpoint.
inline std::unique_ptr<ModelRegistry> one_version_registry(
    const ServeConfig& config) {
  std::stringstream checkpoint;
  shared_classifier().save(checkpoint);
  return std::make_unique<ModelRegistry>(
      "v1",
      std::make_unique<core::MagicClassifier>(
          core::MagicClassifier::load(checkpoint)),
      config);
}

/// A small scannable graph of the given label.
inline acfg::Acfg small_graph(int label, std::uint64_t seed) {
  util::Rng rng(seed);
  return core::testing::make_graph(label, 6, label == 0, rng);
}

/// A graph big enough that one forward pass takes many milliseconds —
/// used to keep a single worker busy while tests build up queue pressure.
inline acfg::Acfg plug_graph() {
  util::Rng rng(99);
  return core::testing::make_graph(0, 20000, /*chain=*/true, rng);
}

}  // namespace magic::serve::testing
