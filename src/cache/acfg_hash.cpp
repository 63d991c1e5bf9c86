#include "cache/acfg_hash.hpp"

#include <algorithm>
#include <bit>
#include <vector>

namespace magic::cache {
namespace {

// Distinct seeds per hashing context so structurally different inputs can
// never alias across contexts (a vertex signature is not an edge signature
// is not a lane fold).
constexpr std::uint64_t kSeedVertex = 0x5BD1E995C6B36A21ULL;
constexpr std::uint64_t kSeedRound = 0xA0761D6478BD642FULL;
constexpr std::uint64_t kSeedEdge = 0xE7037ED1A0B428DBULL;
constexpr std::uint64_t kSeedLaneHi = 0x8EBC6AF09C88C6E3ULL;
constexpr std::uint64_t kSeedLaneLo = 0x589965CC75374CC3ULL;
constexpr std::uint64_t kSeedBytes = 0x1D8E4E27C47D124FULL;

/// Murmur3 64-bit finalizer: full avalanche over one word.
constexpr std::uint64_t fmix64(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

/// Order-sensitive chaining step (the building block; unordered collections
/// are sorted before being folded through it).
constexpr std::uint64_t chain(std::uint64_t h, std::uint64_t v) noexcept {
  return fmix64((h + 0x9E3779B97F4A7C15ULL) ^ (v * 0xBF58476D1CE4E5B9ULL));
}

/// Folds an already-sorted run of signatures into one word.
std::uint64_t fold_sorted(std::uint64_t seed, const std::vector<std::uint64_t>& sorted) {
  std::uint64_t h = chain(seed, sorted.size());
  for (const std::uint64_t sig : sorted) h = chain(h, sig);
  return h;
}

}  // namespace

std::string CacheKey::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = digits[(hi >> (4 * i)) & 0xF];
    out[31 - i] = digits[(lo >> (4 * i)) & 0xF];
  }
  return out;
}

CacheKey acfg_content_hash(const acfg::Acfg& sample) {
  const std::size_t n = sample.num_vertices();
  const std::size_t c = sample.num_channels();

  // In-adjacency (multiset semantics: parallel edges contribute twice).
  std::vector<std::vector<std::size_t>> in_edges(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (const std::size_t v : sample.out_edges[u]) in_edges[v].push_back(u);
  }

  // 1. Initial signatures: attribute row bit patterns + degree profile.
  //    Vertex ids never enter, so any relabeling yields the same multiset.
  std::vector<std::uint64_t> sig(n);
  const double* attributes = sample.attributes.data();
  for (std::size_t v = 0; v < n; ++v) {
    std::uint64_t h = chain(kSeedVertex, c);
    for (std::size_t j = 0; j < c; ++j) {
      h = chain(h, std::bit_cast<std::uint64_t>(attributes[v * c + j]));
    }
    h = chain(h, sample.out_edges[v].size());
    h = chain(h, in_edges[v].size());
    sig[v] = h;
  }

  // 2. WL refinement: mix each signature with the sorted multisets of its
  //    out- and in-neighbour signatures. Three rounds discriminate well
  //    beyond the degree profile while staying O(rounds * (n + m) log d).
  constexpr int kRounds = 3;
  std::vector<std::uint64_t> next(n);
  std::vector<std::uint64_t> neighbour_sigs;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      neighbour_sigs.clear();
      for (const std::size_t w : sample.out_edges[v]) neighbour_sigs.push_back(sig[w]);
      std::sort(neighbour_sigs.begin(), neighbour_sigs.end());
      const std::uint64_t out_fold = fold_sorted(kSeedRound, neighbour_sigs);
      neighbour_sigs.clear();
      for (const std::size_t w : in_edges[v]) neighbour_sigs.push_back(sig[w]);
      std::sort(neighbour_sigs.begin(), neighbour_sigs.end());
      const std::uint64_t in_fold = fold_sorted(kSeedRound, neighbour_sigs);
      next[v] = chain(chain(chain(kSeedRound, sig[v]), out_fold), in_fold);
    }
    sig.swap(next);
  }

  // 3. Canonical fold: sorted vertex-signature multiset + sorted directed
  //    edge-signature multiset (asymmetric in u -> v) + global counts, into
  //    two independently seeded lanes.
  std::size_t m = 0;
  std::vector<std::uint64_t> edge_sigs;
  edge_sigs.reserve(sample.num_edges());
  for (std::size_t u = 0; u < n; ++u) {
    for (const std::size_t v : sample.out_edges[u]) {
      edge_sigs.push_back(chain(chain(kSeedEdge, sig[u]), sig[v]));
      ++m;
    }
  }
  std::sort(sig.begin(), sig.end());
  std::sort(edge_sigs.begin(), edge_sigs.end());

  auto lane = [&](std::uint64_t seed) {
    std::uint64_t h = chain(seed, n);
    h = chain(h, m);
    h = chain(h, c);
    h = chain(h, fold_sorted(seed, sig));
    h = chain(h, fold_sorted(seed, edge_sigs));
    return fmix64(h);
  };
  // The label and id are deliberately excluded: at serve time a submitted
  // sample is unlabeled, and the cache must address it by *content* only.
  return CacheKey{lane(kSeedLaneHi), lane(kSeedLaneLo)};
}

namespace {

/// The raw-bytes lane walk behind bytes_content_hash and keyed_bytes_hash,
/// from the two starting lane seeds.
CacheKey hash_bytes(std::uint64_t seed_hi, std::uint64_t seed_lo, const void* data,
                    std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hi = chain(seed_hi, size);
  std::uint64_t lo = chain(seed_lo, size);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    for (int b = 0; b < 8; ++b) {
      word |= static_cast<std::uint64_t>(bytes[i + b]) << (8 * b);
    }
    hi = chain(hi, word);
    lo = chain(lo, word ^ 0xA5A5A5A5A5A5A5A5ULL);
  }
  std::uint64_t tail = 0;
  for (int b = 0; i < size; ++i, ++b) {
    tail |= static_cast<std::uint64_t>(bytes[i]) << (8 * b);
  }
  hi = fmix64(chain(hi, tail));
  lo = fmix64(chain(lo, tail ^ 0xA5A5A5A5A5A5A5A5ULL));
  return CacheKey{hi, lo};
}

}  // namespace

CacheKey bytes_content_hash(const void* data, std::size_t size) {
  return hash_bytes(kSeedBytes ^ kSeedLaneHi, kSeedBytes ^ kSeedLaneLo, data, size);
}

CacheKey keyed_bytes_hash(const CacheKey& secret, const void* data, std::size_t size) {
  return hash_bytes(kSeedBytes ^ kSeedLaneHi ^ secret.hi,
                    kSeedBytes ^ kSeedLaneLo ^ secret.lo, data, size);
}

}  // namespace magic::cache
