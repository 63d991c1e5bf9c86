#pragma once
// Canonical content hashing for ACFGs: the key of the verdict cache and the
// integrity stamp of the packed corpus format.
//
// Real scanning traffic is massively duplicated — the same binary is
// submitted by millions of endpoints — so the serving layer content-
// addresses requests: two structurally identical ACFGs must map to the same
// 128-bit key no matter how their vertices happened to be numbered or their
// edge lists ordered by the frontend. The hash is therefore *canonical*:
//
//   1. Every vertex gets an initial signature from data that survives
//      relabeling: the exact bit patterns of its attribute row plus its
//      out- and in-degree. Vertex ids never enter the hash.
//   2. Three rounds of Weisfeiler-Lehman-style refinement mix each vertex's
//      signature with the *sorted multisets* of its out- and in-neighbour
//      signatures, so topology beyond the 1-hop degree profile
//      discriminates.
//   3. The graph hash folds the sorted multiset of final vertex signatures,
//      the sorted multiset of directed edge signatures (sig(u) combined
//      asymmetrically with sig(v), duplicates kept), the label and the
//      global counts (n, m, channels) into two independently seeded 64-bit
//      lanes.
//
// Properties (pinned by tests/cache/acfg_hash_test.cpp):
//   * permutation-invariant: relabeling vertices and/or shuffling adjacency
//     list order never changes the key;
//   * content-sensitive: flipping a single bit of one attribute double, or
//     adding/removing one edge, changes the key;
//   * deterministic across platforms: integer-only mixing over exact double
//     bit patterns (golden values in the tests).
//
// Like any WL-bounded scheme, graphs that are WL-equivalent *and* carry
// identical attribute rows collide by design; for CFGs with Table I
// attribute rows this means "the classifier cannot tell them apart either",
// which is exactly the equivalence a verdict cache wants.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "acfg/acfg.hpp"

namespace magic::cache {

/// 128-bit content address of one ACFG (two independent 64-bit lanes).
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey& a, const CacheKey& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const CacheKey& a, const CacheKey& b) noexcept {
    return !(a == b);
  }
  friend bool operator<(const CacheKey& a, const CacheKey& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  /// 32 lowercase hex digits (hi then lo), e.g. for logs and goldens.
  std::string to_hex() const;
};

/// Shard/bucket hash over a CacheKey (the key is already uniform; this just
/// folds the lanes).
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept {
    return static_cast<std::size_t>(key.hi ^ (key.lo * 0x9E3779B97F4A7C15ULL));
  }
};

/// Canonical content hash of `sample` (attributes + topology + label).
/// The sample id is deliberately excluded: two submissions of the same
/// binary under different names must collide.
CacheKey acfg_content_hash(const acfg::Acfg& sample);

/// Raw-bytes hash with the same mixing core (the packed corpus format uses
/// it as its payload integrity stamp). Not canonical — byte order matters.
CacheKey bytes_content_hash(const void* data, std::size_t size);

/// bytes_content_hash with `secret` folded into both starting lanes. Each
/// chaining step can be inverted, so anyone who knows the lane states can
/// solve for one word per message that makes two chosen inputs collide;
/// the secret keeps the states unknown. Use it wherever the hashed bytes
/// come from an adversary and a collision would change an answer (the
/// serve-side listing key); same secret, same bytes, same key.
CacheKey keyed_bytes_hash(const CacheKey& secret, const void* data, std::size_t size);

}  // namespace magic::cache
