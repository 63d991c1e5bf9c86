// Serialization format edge cases beyond the classifier round-trip tests.

#include <sys/resource.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "magic/classifier.hpp"
#include "magic/core_test_util.hpp"

namespace magic::core {
namespace {

using testing::separable_dataset;

MagicClassifier fitted_classifier(DgcnnConfig cfg, std::uint64_t seed) {
  data::Dataset d = separable_dataset(6, seed);
  TrainOptions quick;
  quick.epochs = 2;
  quick.learning_rate = 1e-3;
  MagicClassifier clf(cfg, quick, seed);
  clf.fit(d, 0.2);
  return clf;
}

DgcnnConfig wv_config() {
  DgcnnConfig cfg;
  cfg.graph_conv_channels = {4, 4};
  cfg.pooling = PoolingType::SortPooling;
  cfg.remaining = RemainingLayer::WeightedVertices;
  cfg.hidden_dim = 8;
  return cfg;
}

TEST(ModelIo, HeaderCarriesConfigFlags) {
  DgcnnConfig cfg = wv_config();
  cfg.log1p_attributes = false;
  cfg.normalize_propagation = false;
  MagicClassifier clf = fitted_classifier(cfg, 1);
  std::stringstream ss;
  clf.save(ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("MAGIC-MODEL v3"), std::string::npos);
  EXPECT_NE(text.find("log1p 0"), std::string::npos);
  EXPECT_NE(text.find("norm 0"), std::string::npos);
  EXPECT_NE(text.find("pooling sort"), std::string::npos);
  EXPECT_NE(text.find("op paper"), std::string::npos);
  EXPECT_NE(text.find("tag_hops 2"), std::string::npos);

  MagicClassifier restored = MagicClassifier::load(ss);
  EXPECT_FALSE(restored.config().log1p_attributes);
  EXPECT_FALSE(restored.config().normalize_propagation);
}

TEST(ModelIo, ConfigFlagsAffectRestoredPredictions) {
  // A model saved with normalization off must predict identically after
  // reload (i.e. the flag actually round-trips into the rebuilt model).
  DgcnnConfig cfg = wv_config();
  cfg.normalize_propagation = false;
  MagicClassifier clf = fitted_classifier(cfg, 2);
  std::stringstream ss;
  clf.save(ss);
  MagicClassifier restored = MagicClassifier::load(ss);
  util::Rng rng(3);
  acfg::Acfg g = testing::make_graph(0, 8, false, rng);
  const auto a = clf.predict(g);
  const auto b = restored.predict(g);
  ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
  for (std::size_t c = 0; c < a.probabilities.size(); ++c) {
    EXPECT_NEAR(a.probabilities[c], b.probabilities[c], 1e-12);
  }
}

TEST(ModelIo, RejectsParameterCountMismatch) {
  MagicClassifier clf = fitted_classifier(wv_config(), 4);
  std::stringstream ss;
  clf.save(ss);
  std::string text = ss.str();
  // Corrupt the parameter count.
  const auto pos = text.find("params ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, "params 1");
  std::stringstream corrupted(text);
  EXPECT_THROW(MagicClassifier::load(corrupted), std::runtime_error);
}

TEST(ModelIo, RejectsUnknownPoolingToken) {
  MagicClassifier clf = fitted_classifier(wv_config(), 5);
  std::stringstream ss;
  clf.save(ss);
  std::string text = ss.str();
  const auto pos = text.find("pooling sort");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "pooling blub");
  std::stringstream corrupted(text);
  EXPECT_THROW(MagicClassifier::load(corrupted), std::runtime_error);
}

TEST(ModelIo, SaveIsDeterministic) {
  MagicClassifier clf = fitted_classifier(wv_config(), 6);
  std::stringstream a, b;
  clf.save(a);
  clf.save(b);
  EXPECT_EQ(a.str(), b.str());
}

MagicClassifier fitted_with_names(std::vector<std::string> names,
                                  std::uint64_t seed) {
  data::Dataset d = testing::separable_dataset(6, seed);
  d.family_names = std::move(names);
  TrainOptions quick;
  quick.epochs = 2;
  quick.learning_rate = 1e-3;
  MagicClassifier clf(wv_config(), quick, seed);
  clf.fit(d, 0.2);
  return clf;
}

TEST(ModelIo, SpacedFamilyNamesRoundTrip) {
  // v1 wrote one bare name per line but read with operator>>, so a space
  // split one name into several and cascaded into the following entries.
  MagicClassifier clf =
      fitted_with_names({"Trojan Horse Generic", "Benign  (two spaces)"}, 7);
  std::stringstream ss;
  clf.save(ss);
  MagicClassifier restored = MagicClassifier::load(ss);
  ASSERT_EQ(restored.family_names().size(), 2u);
  EXPECT_EQ(restored.family_names()[0], "Trojan Horse Generic");
  EXPECT_EQ(restored.family_names()[1], "Benign  (two spaces)");

  // And predictions are bit-identical after the round trip.
  util::Rng rng(8);
  acfg::Acfg g = testing::make_graph(1, 7, true, rng);
  const auto a = clf.predict(g);
  const auto b = restored.predict(g);
  EXPECT_EQ(a.family_index, b.family_index);
  EXPECT_EQ(a.family_name, b.family_name);
  ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
  for (std::size_t c = 0; c < a.probabilities.size(); ++c) {
    EXPECT_EQ(a.probabilities[c], b.probabilities[c]);  // bitwise
  }
}

TEST(ModelIo, Utf8FamilyNamesRoundTrip) {
  MagicClassifier clf =
      fitted_with_names({"Троян Общий", "良性 プログラム"}, 9);
  std::stringstream ss;
  clf.save(ss);
  MagicClassifier restored = MagicClassifier::load(ss);
  ASSERT_EQ(restored.family_names().size(), 2u);
  EXPECT_EQ(restored.family_names()[0], "Троян Общий");
  EXPECT_EQ(restored.family_names()[1], "良性 プログラム");
}

/// Strips the v3-only " op <name> tag_hops <k>" header tokens, producing the
/// v1/v2 header layout.
std::string strip_operator_tokens(std::string text) {
  const auto op_pos = text.find(" op ");
  EXPECT_NE(op_pos, std::string::npos);
  const auto classes_pos = text.find(" classes ", op_pos);
  EXPECT_NE(classes_pos, std::string::npos);
  text.erase(op_pos, classes_pos - op_pos);
  return text;
}

TEST(ModelIo, LoadsLegacyV1Checkpoint) {
  // Rewrite a fresh v3 checkpoint into the v1 layout (bare names, which is
  // all v1 could round-trip; no operator tokens) and check the legacy
  // reader still works.
  MagicClassifier clf = fitted_classifier(wv_config(), 10);
  std::stringstream ss;
  clf.save(ss);
  std::string text = strip_operator_tokens(ss.str());
  const auto header = text.find("MAGIC-MODEL v3");
  ASSERT_NE(header, std::string::npos);
  text.replace(header, 14, "MAGIC-MODEL v1");
  for (const auto& name : clf.family_names()) {
    const std::string prefixed = std::to_string(name.size()) + " " + name;
    const auto pos = text.find(prefixed);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, prefixed.size(), name);
  }
  std::stringstream legacy(text);
  MagicClassifier restored = MagicClassifier::load(legacy);
  EXPECT_EQ(restored.family_names(), clf.family_names());

  util::Rng rng(11);
  acfg::Acfg g = testing::make_graph(0, 6, false, rng);
  const auto a = clf.predict(g);
  const auto b = restored.predict(g);
  for (std::size_t c = 0; c < a.probabilities.size(); ++c) {
    EXPECT_EQ(a.probabilities[c], b.probabilities[c]);
  }
}

TEST(ModelIo, RejectsUnsupportedVersion) {
  MagicClassifier clf = fitted_classifier(wv_config(), 12);
  std::stringstream ss;
  clf.save(ss);
  std::string text = ss.str();
  text.replace(text.find("MAGIC-MODEL v3"), 14, "MAGIC-MODEL v9");
  std::stringstream corrupted(text);
  try {
    MagicClassifier::load(corrupted);
    FAIL() << "expected rejection of version v9";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"), std::string::npos)
        << e.what();
  }
}

TEST(ModelIo, RejectsRenamedParameter) {
  MagicClassifier clf = fitted_classifier(wv_config(), 13);
  std::stringstream ss;
  clf.save(ss);
  std::string text = ss.str();
  // The first parameter header is the line after "params N".
  auto pos = text.find("params ");
  ASSERT_NE(pos, std::string::npos);
  pos = text.find('\n', pos) + 1;
  const auto name_end = text.find(' ', pos);
  ASSERT_NE(name_end, std::string::npos);
  text.replace(pos, name_end - pos, "bogus_tensor");
  std::stringstream corrupted(text);
  try {
    MagicClassifier::load(corrupted);
    FAIL() << "expected rejection of renamed parameter";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("name mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus_tensor"), std::string::npos) << what;
  }
}

TEST(ModelIo, LoadsV2CheckpointAsPaperOperator) {
  // A pre-zoo v2 file (no operator tokens) must load as PaperGraphConv and
  // predict bit-identically — the format bump cannot orphan old models.
  MagicClassifier clf = fitted_classifier(wv_config(), 20);
  std::stringstream ss;
  clf.save(ss);
  std::string text = strip_operator_tokens(ss.str());
  const auto header = text.find("MAGIC-MODEL v3");
  ASSERT_NE(header, std::string::npos);
  text.replace(header, 14, "MAGIC-MODEL v2");
  std::stringstream legacy(text);
  MagicClassifier restored = MagicClassifier::load(legacy);
  EXPECT_EQ(restored.config().graph_conv_op, nn::GraphConvOperator::Paper);

  util::Rng rng(21);
  acfg::Acfg g = testing::make_graph(0, 6, false, rng);
  const auto a = clf.predict(g);
  const auto b = restored.predict(g);
  ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
  for (std::size_t c = 0; c < a.probabilities.size(); ++c) {
    EXPECT_EQ(a.probabilities[c], b.probabilities[c]);  // bitwise
  }
}

TEST(ModelIo, SageAndTagCheckpointsRoundTripBitwise) {
  for (auto kind : {nn::GraphConvOperator::Sage, nn::GraphConvOperator::Tag}) {
    DgcnnConfig cfg = wv_config();
    cfg.graph_conv_op = kind;
    cfg.tag_hops = 3;
    MagicClassifier clf = fitted_classifier(cfg, 22);
    std::stringstream ss;
    clf.save(ss);
    const std::string text = ss.str();
    const std::string tag =
        std::string("op ") + nn::graph_conv_operator_name(kind);
    EXPECT_NE(text.find(tag), std::string::npos) << text.substr(0, 200);
    EXPECT_NE(text.find("tag_hops 3"), std::string::npos);

    MagicClassifier restored = MagicClassifier::load(ss);
    EXPECT_EQ(restored.config().graph_conv_op, kind);
    EXPECT_EQ(restored.config().tag_hops, 3u);
    util::Rng rng(23);
    acfg::Acfg g = testing::make_graph(1, 9, true, rng);
    const auto a = clf.predict(g);
    const auto b = restored.predict(g);
    EXPECT_EQ(a.family_index, b.family_index);
    ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
    for (std::size_t c = 0; c < a.probabilities.size(); ++c) {
      EXPECT_EQ(a.probabilities[c], b.probabilities[c]);  // bitwise
    }
  }
}

TEST(ModelIo, RejectsMismatchedOperator) {
  // Header claims sage but the stored weights are the paper operator's: the
  // rebuilt model expects 'sage_conv.weight' and the per-parameter name
  // check must refuse to pour paper weights into a different formula.
  MagicClassifier clf = fitted_classifier(wv_config(), 24);
  std::stringstream ss;
  clf.save(ss);
  std::string text = ss.str();
  const auto pos = text.find("op paper");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, "op sage");
  std::stringstream corrupted(text);
  try {
    MagicClassifier::load(corrupted);
    FAIL() << "expected rejection of operator/weights mismatch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("name mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("graph_conv.weight"), std::string::npos) << what;
  }
}

TEST(ModelIo, RejectsUnknownOperatorToken) {
  MagicClassifier clf = fitted_classifier(wv_config(), 25);
  std::stringstream ss;
  clf.save(ss);
  std::string text = ss.str();
  const auto pos = text.find("op paper");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, "op gat  ");
  std::stringstream corrupted(text);
  try {
    MagicClassifier::load(corrupted);
    FAIL() << "expected rejection of unknown operator";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("operator"), std::string::npos)
        << e.what();
  }
}

TEST(ModelIo, RejectsFamilyTableClassCountMismatch) {
  MagicClassifier clf = fitted_classifier(wv_config(), 14);
  std::stringstream ss;
  clf.save(ss);
  std::string text = ss.str();
  // Drop one family entry and shrink the declared count: the table no
  // longer matches the model's `classes` field.
  const std::string& last = clf.family_names().back();
  const std::string entry = std::to_string(last.size()) + " " + last + "\n";
  const auto entry_pos = text.find(entry);
  ASSERT_NE(entry_pos, std::string::npos);
  text.erase(entry_pos, entry.size());
  const auto count_pos = text.find("families 2");
  ASSERT_NE(count_pos, std::string::npos);
  text.replace(count_pos, 10, "families 1");
  std::stringstream corrupted(text);
  try {
    MagicClassifier::load(corrupted);
    FAIL() << "expected rejection of family/class count mismatch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("family table"), std::string::npos) << what;
    EXPECT_NE(what.find("1"), std::string::npos) << what;
    EXPECT_NE(what.find("2"), std::string::npos) << what;
  }
}

TEST(ModelIo, RejectsTruncatedFamilyTable) {
  MagicClassifier clf = fitted_classifier(wv_config(), 15);
  std::stringstream ss;
  clf.save(ss);
  std::string text = ss.str();
  // Claim a name longer than the remaining file.
  const std::string& first = clf.family_names().front();
  const std::string entry = std::to_string(first.size()) + " " + first;
  const auto pos = text.find(entry);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, entry.size(), "999999 " + first);
  std::stringstream corrupted(text);
  EXPECT_THROW(MagicClassifier::load(corrupted), std::runtime_error);
}

/// Peak resident set size of this process so far, in KiB (Linux ru_maxrss).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Header counts are untrusted: each is checked against its bound before
// anything is sized from it. Sized unchecked, "families 400000000" touches
// 12.5 GB and a 9e9-byte name length 8.8 GB before the load fails.
TEST(ModelIo, HugeHeaderCountsThrowWithoutAllocating) {
  MagicClassifier clf = fitted_classifier(wv_config(), 16);
  std::stringstream ss;
  clf.save(ss);
  const std::string text = ss.str();
  auto mutate = [&text](const std::string& from, const std::string& to) {
    std::string out = text;
    const auto pos = out.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos) out.replace(pos, from.size(), to);
    return out;
  };
  const std::string& first = clf.family_names().front();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"family count", mutate("families 2", "families 400000000")},
      {"family name length",
       mutate(std::to_string(first.size()) + " " + first, "9000000000 " + first)},
      {"graph-conv depth", mutate("graph_conv 2", "graph_conv 400000000")},
  };

  const long before = peak_rss_kib();
  for (const auto& [what, checkpoint] : cases) {
    std::stringstream in(checkpoint);
    try {
      MagicClassifier::load(in);
      ADD_FAILURE() << what << ": expected rejection";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  }
  // 64 MiB: far above what parsing a few-KiB checkpoint needs, far below
  // any allocation sized by one of the counts above.
  EXPECT_LT(peak_rss_kib() - before, 64L * 1024) << "peak RSS grew while loading";
}

}  // namespace
}  // namespace magic::core
