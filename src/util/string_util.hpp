#pragma once
// Small string helpers shared by the assembly lexer, CSV writer and benches.

#include <string>
#include <string_view>
#include <vector>

namespace magic::util {

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s) noexcept;

/// Splits on runs of ASCII whitespace; no empty fields are produced.
std::vector<std::string> split_whitespace(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Formats a double with fixed precision (e.g. for table cells).
std::string format_fixed(double value, int precision);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

}  // namespace magic::util
