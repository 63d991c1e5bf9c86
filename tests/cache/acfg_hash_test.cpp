// Canonical ACFG content-hash tests: golden values (the hash is a
// persisted cache key and part of the packed corpus format, so it must
// never drift across releases or platforms), permutation invariance under
// vertex relabelling, and sensitivity to any semantic change.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acfg/acfg.hpp"
#include "cache/acfg_hash.hpp"
#include "cache/forged_collision.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace magic::cache {
namespace {

acfg::Acfg make_graph(std::size_t n, std::size_t c,
                      const std::vector<std::pair<std::size_t, std::size_t>>& edges,
                      double attr_seed = 1.0) {
  acfg::Acfg g;
  std::vector<double> attrs(n * c);
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    attrs[i] = attr_seed * static_cast<double>(i % 7) + static_cast<double>(i / 7);
  }
  g.attributes = tensor::Tensor({n, c}, std::move(attrs));
  g.out_edges.resize(n);
  for (const auto& [u, v] : edges) g.out_edges[u].push_back(v);
  g.label = 3;
  g.id = "golden";
  return g;
}

/// Relabels vertices by `perm` (perm[old] = new) and shuffles the order of
/// every out-edge list; attribute rows move with their vertices. The graph
/// is isomorphic with identical attributes, so the hash must not move.
acfg::Acfg relabel(const acfg::Acfg& g, const std::vector<std::size_t>& perm,
                   util::Rng& rng) {
  const std::size_t n = g.num_vertices();
  const std::size_t c = g.num_channels();
  acfg::Acfg out;
  std::vector<double> attrs(n * c);
  out.out_edges.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t nu = perm[u];
    for (std::size_t ch = 0; ch < c; ++ch) {
      attrs[nu * c + ch] = g.attributes.at(u, ch);
    }
    for (const std::size_t v : g.out_edges[u]) {
      out.out_edges[nu].push_back(perm[v]);
    }
  }
  for (auto& edges : out.out_edges) rng.shuffle(edges);
  out.attributes = tensor::Tensor({n, c}, std::move(attrs));
  out.label = g.label;
  out.id = g.id;
  return out;
}

TEST(AcfgHash, GoldenSmallGraph) {
  const acfg::Acfg g = make_graph(4, 3, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  const CacheKey key = acfg_content_hash(g);
  // Pinned: changing the hash algorithm invalidates every persisted packed
  // corpus and cache key. Bump the corpus-format version if this must move.
  EXPECT_EQ(key.to_hex(), "7a8c5f1b0d48998efe8e6152154816ed");
}

TEST(AcfgHash, GoldenSingleVertex) {
  const acfg::Acfg g = make_graph(1, 2, {});
  EXPECT_EQ(acfg_content_hash(g).to_hex(), "033dc7a266ae05bbd3328992a9ac8078");
}

TEST(AcfgHash, GoldenEmptyGraph) {
  acfg::Acfg g;
  g.attributes = tensor::Tensor({std::size_t{0}, std::size_t{2}});
  EXPECT_EQ(acfg_content_hash(g).to_hex(), "7da129bae3fb702f1c3ecb2ad10e8e04");
}

TEST(AcfgHash, BytesGolden) {
  const char data[] = "MAGIC packed corpus payload";
  const CacheKey key = bytes_content_hash(data, sizeof(data) - 1);
  EXPECT_EQ(key.to_hex(), "0954bafcc3c393cc80fc7259eba43edf");
}

TEST(AcfgHash, InvariantUnderRelabellingAndEdgeOrder) {
  util::Rng rng(77);
  acfg::Acfg g = make_graph(9, 4,
                            {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5},
                             {5, 6}, {6, 7}, {7, 8}, {8, 0}, {2, 6}, {4, 8}});
  const CacheKey original = acfg_content_hash(g);
  std::vector<std::size_t> perm(g.num_vertices());
  std::iota(perm.begin(), perm.end(), 0);
  for (int round = 0; round < 20; ++round) {
    rng.shuffle(perm);
    const acfg::Acfg shuffled = relabel(g, perm, rng);
    EXPECT_EQ(acfg_content_hash(shuffled), original) << "round " << round;
  }
}

TEST(AcfgHash, IgnoresLabelAndId) {
  acfg::Acfg g = make_graph(5, 3, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const CacheKey original = acfg_content_hash(g);
  g.label = 11;
  g.id = "entirely-different-sample";
  EXPECT_EQ(acfg_content_hash(g), original);
}

TEST(AcfgHash, OneBitAttributeChangeChangesHash) {
  acfg::Acfg g = make_graph(5, 3, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const CacheKey original = acfg_content_hash(g);
  // Smallest representable perturbation: flip the low mantissa bit of one
  // attribute. The whole point of content addressing is that this is a
  // different content.
  double v = g.attributes.at(2, 1);
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= 1;
  std::memcpy(&v, &bits, sizeof(bits));
  g.attributes.at(2, 1) = v;
  EXPECT_NE(acfg_content_hash(g), original);
}

TEST(AcfgHash, EdgeChangesChangeHash) {
  const acfg::Acfg base = make_graph(5, 3, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const CacheKey original = acfg_content_hash(base);
  // Added edge.
  acfg::Acfg added = base;
  added.out_edges[0].push_back(4);
  EXPECT_NE(acfg_content_hash(added), original);
  // Redirected edge (same edge count).
  acfg::Acfg redirected = base;
  redirected.out_edges[3].back() = 0;
  EXPECT_NE(acfg_content_hash(redirected), original);
  // Reversed edge direction (in/out degrees swap).
  acfg::Acfg reversed = base;
  reversed.out_edges[3].clear();
  reversed.out_edges[4].push_back(3);
  EXPECT_NE(acfg_content_hash(reversed), original);
}

TEST(AcfgHash, VertexCountMattersEvenWithoutEdges) {
  const acfg::Acfg two = make_graph(2, 2, {});
  const acfg::Acfg three = make_graph(3, 2, {});
  EXPECT_NE(acfg_content_hash(two), acfg_content_hash(three));
}

TEST(AcfgHash, BytesHashDetectsAnyFlip) {
  std::vector<unsigned char> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  const CacheKey original = bytes_content_hash(payload.data(), payload.size());
  for (const std::size_t pos : {std::size_t{0}, std::size_t{8}, std::size_t{255},
                                payload.size() - 1}) {
    std::vector<unsigned char> tampered = payload;
    tampered[pos] ^= 0x01;
    EXPECT_NE(bytes_content_hash(tampered.data(), tampered.size()), original)
        << "flip at " << pos;
  }
  // Length is part of the content.
  EXPECT_NE(bytes_content_hash(payload.data(), payload.size() - 1), original);
}

CacheKey hash_of(const std::string& bytes) {
  return bytes_content_hash(bytes.data(), bytes.size());
}

CacheKey keyed_hash_of(const CacheKey& secret, const std::string& bytes) {
  return keyed_bytes_hash(secret, bytes.data(), bytes.size());
}

TEST(KeyedBytesHash, SecretSeparatesAForgedUnkeyedCollision) {
  std::optional<testing::ForgedPair> pair;
  for (int attempt = 0; !pair && attempt < 1000; ++attempt) {
    std::string prefix = "pad " + std::to_string(attempt);
    prefix.resize(16, '.');
    pair = testing::forge_collision(prefix, "benign..listing.", " shared tail");
  }
  ASSERT_TRUE(pair.has_value());
  ASSERT_NE(pair->first, pair->second);
  // Anyone can forge a collision of the unkeyed hash...
  EXPECT_EQ(hash_of(pair->first), hash_of(pair->second));
  // ...but not of the keyed one without its secret.
  const CacheKey secret{0x0123456789ABCDEFull, 0x0F1E2D3C4B5A6978ull};
  EXPECT_NE(keyed_hash_of(secret, pair->first), keyed_hash_of(secret, pair->second));
  EXPECT_EQ(keyed_hash_of(secret, pair->first), keyed_hash_of(secret, pair->first));
  // A zero secret is the unkeyed hash, so .mgc stamps keep their values.
  EXPECT_EQ(keyed_hash_of(CacheKey{}, pair->first), hash_of(pair->first));
}

TEST(CacheKeyBasics, HexAndOrdering) {
  const CacheKey a{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  EXPECT_EQ(a.to_hex(), "0123456789abcdeffedcba9876543210");
  const CacheKey b{0x0123456789ABCDEFull, 0xFEDCBA9876543211ull};
  EXPECT_TRUE(a < b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a);
}

}  // namespace
}  // namespace magic::cache
