#pragma once
// Case-folded integer keys for the short names the front end looks up
// (mnemonics, registers). Classifying a token then costs one pass over its
// bytes and a binary search over a sorted key array, with no lower-cased
// copy and no string hashing.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace magic::asmx {

/// ASCII lower-casing, independent of the C locale.
constexpr char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Longest name a key can hold; no mnemonic or register is longer.
inline constexpr std::size_t kMaxKeyedName = 7;

/// The length, then the lower-cased bytes, packed into one integer: equal
/// keys mean equal names up to ASCII case. 0 for an empty name or one
/// longer than kMaxKeyedName, which therefore matches nothing.
constexpr std::uint64_t name_key(std::string_view name) noexcept {
  if (name.empty() || name.size() > kMaxKeyedName) return 0;
  std::uint64_t key = name.size();
  for (char c : name) key = key << 8 | static_cast<unsigned char>(ascii_lower(c));
  return key;
}

}  // namespace magic::asmx
