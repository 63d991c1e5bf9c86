#pragma once
// Parser for plain-text disassembly listings.
//
// Accepted line forms (comments start with ';' and run to end of line):
//
//   some_label:                      ; symbolic label for the next address
//   401000 push ebp                  ; hex address + mnemonic + operands
//   0x401004 mov ebp, esp            ; 0x-prefixed addresses also accepted
//   401008 jz loc_401020             ; targets may be labels or addresses
//
// This mirrors the information content of an IDA Pro .asm export: a sorted
// address -> instruction mapping (the paper's P : Z+ -> I). Instruction
// sizes are inferred from the gap to the next address (the last instruction
// gets size 1), which is exactly what the fall-through rule addr + size
// needs.
//
// Parsing copies no text: each line is classified through string_views
// into a fixed-size Instruction (see instruction.hpp), so the only
// allocations are the growing instruction array, label names, the list of
// label references and diagnostics.

#include <string>
#include <string_view>
#include <vector>

#include "asmx/instruction.hpp"

namespace magic::asmx {

/// Non-fatal parse issues (unknown target labels, duplicate addresses, ...).
struct ParseDiagnostic {
  std::size_t line = 0;
  std::string message;
};

/// Result of parsing a listing.
struct ParseResult {
  Program program;
  std::vector<ParseDiagnostic> diagnostics;
};

/// Parses a whole listing. Throws std::runtime_error only on malformed
/// structure (unparseable address with non-empty code field); recoverable
/// issues are reported as diagnostics, matching the tolerance needed for
/// real-world disassembly.
ParseResult parse_listing(std::string_view text);

/// Classifies a single operand, in any letter case. The result's `text`
/// views `text`, so it lives as long as the caller's buffer.
Operand parse_operand(std::string_view text);

/// Parses "401000", "0x401000" or "401000h"; returns false if not numeric.
bool parse_number(std::string_view text, std::uint64_t& out) noexcept;

/// True if `name` names an x86 register (any common 8/16/32/64-bit one),
/// in any letter case.
bool is_register_name(std::string_view name) noexcept;

}  // namespace magic::asmx
