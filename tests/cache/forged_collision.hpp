#pragma once
// Forges two byte strings of equal length that collide under the unkeyed
// cache::bytes_content_hash, the way anyone who reads the algorithm can:
// walk both prefixes through the two hash lanes, then solve for one 8-byte
// word per message that makes both 128-bit lane states equal. A shared
// suffix keeps them equal to the end.
//
// The step chain(h, w) = fmix64((h + C) ^ (w * K)) is a bijection of
// (h + C) ^ (w * K), so after the solved words the lanes meet iff
//   (h1 + C) ^ (h2 + C) == (w1 * K) ^ (w2 * K)                (hi lane)
//   (l1 + C) ^ (l2 + C) == ((w1 ^ A) * K) ^ ((w2 ^ A) * K)    (lo lane)
// Multiplication mod 2^64 is a T-function (bit i of w * K depends only on
// bits 0..i of w), so a depth-first search fixes (w1, w2) one bit at a
// time. The constants mirror src/cache/acfg_hash.cpp; the forged pair is
// checked against the real function by its callers.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace magic::cache::testing {

namespace forge_detail {

constexpr std::uint64_t kSeedLaneHi = 0x8EBC6AF09C88C6E3ULL;
constexpr std::uint64_t kSeedLaneLo = 0x589965CC75374CC3ULL;
constexpr std::uint64_t kSeedBytes = 0x1D8E4E27C47D124FULL;
constexpr std::uint64_t kAdd = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kMul = 0xBF58476D1CE4E5B9ULL;
constexpr std::uint64_t kLoXor = 0xA5A5A5A5A5A5A5A5ULL;

constexpr std::uint64_t fmix64(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

constexpr std::uint64_t chain(std::uint64_t h, std::uint64_t v) noexcept {
  return fmix64((h + kAdd) ^ (v * kMul));
}

inline std::uint64_t word_at(std::string_view bytes, std::size_t i) {
  std::uint64_t word = 0;
  for (int b = 0; b < 8; ++b) {
    word |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i + b])) << (8 * b);
  }
  return word;
}

/// Lane states after `prefix` (a whole number of words) of a message of
/// `total` bytes.
inline void walk(std::string_view prefix, std::size_t total, std::uint64_t& hi,
                 std::uint64_t& lo) {
  hi = chain(kSeedBytes ^ kSeedLaneHi, total);
  lo = chain(kSeedBytes ^ kSeedLaneLo, total);
  for (std::size_t i = 0; i < prefix.size(); i += 8) {
    const std::uint64_t word = word_at(prefix, i);
    hi = chain(hi, word);
    lo = chain(lo, word ^ kLoXor);
  }
}

/// Extends (w1, w2), fixed below `bit`, to a full solution of the two lane
/// equations; false when none exists or `budget` nodes are spent.
inline bool solve(std::uint64_t d_hi, std::uint64_t d_lo, int bit, std::uint64_t w1,
                  std::uint64_t w2, long& budget, std::uint64_t& out1, std::uint64_t& out2) {
  if (bit == 64) {
    out1 = w1;
    out2 = w2;
    return true;
  }
  if (--budget < 0) return false;
  const std::uint64_t mask = bit == 63 ? ~0ULL : (std::uint64_t{2} << bit) - 1;
  for (int choice = 0; choice < 4; ++choice) {
    const std::uint64_t a = w1 | (static_cast<std::uint64_t>(choice & 1) << bit);
    const std::uint64_t b = w2 | (static_cast<std::uint64_t>(choice >> 1) << bit);
    if ((((a * kMul) ^ (b * kMul) ^ d_hi) & mask) != 0) continue;
    if (((((a ^ kLoXor) * kMul) ^ ((b ^ kLoXor) * kMul) ^ d_lo) & mask) != 0) continue;
    if (solve(d_hi, d_lo, bit + 1, a, b, budget, out1, out2)) return true;
  }
  return false;
}

inline void append_word(std::string& out, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) out += static_cast<char>((word >> (8 * b)) & 0xFF);
}

}  // namespace forge_detail

struct ForgedPair {
  std::string first;   ///< prefix_a + forged word + suffix
  std::string second;  ///< prefix_b + forged word + suffix
};

/// A pair whose unkeyed bytes_content_hash is equal, or std::nullopt when
/// these prefixes admit no solution (about 1 in 100 do; vary a prefix and
/// retry). The prefixes must differ, have equal length and be a whole
/// number of 8-byte words.
inline std::optional<ForgedPair> forge_collision(std::string_view prefix_a,
                                                 std::string_view prefix_b,
                                                 std::string_view suffix) {
  using namespace forge_detail;
  if (prefix_a.size() != prefix_b.size() || prefix_a.size() % 8 != 0) return std::nullopt;
  const std::size_t total = prefix_a.size() + 8 + suffix.size();
  std::uint64_t hi_a = 0, lo_a = 0, hi_b = 0, lo_b = 0;
  walk(prefix_a, total, hi_a, lo_a);
  walk(prefix_b, total, hi_b, lo_b);
  long budget = 1L << 16;
  std::uint64_t w1 = 0, w2 = 0;
  if (!solve((hi_a + kAdd) ^ (hi_b + kAdd), (lo_a + kAdd) ^ (lo_b + kAdd), 0, 0, 0, budget,
             w1, w2)) {
    return std::nullopt;
  }
  ForgedPair pair{std::string(prefix_a), std::string(prefix_b)};
  append_word(pair.first, w1);
  append_word(pair.second, w2);
  pair.first.append(suffix);
  pair.second.append(suffix);
  return pair;
}

}  // namespace magic::cache::testing
