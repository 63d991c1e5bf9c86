#pragma once
// Mnemonic -> OpcodeClass classification table (x86 family).
//
// The classes drive both CFG construction (which mnemonics branch, fall
// through, or terminate) and the Table I block attributes. Unknown
// mnemonics classify as Other, so the front end degrades gracefully on
// exotic listings — the paper notes the same tolerance for IDA output whose
// "correctness ... is not guaranteed".

#include <string_view>

#include "asmx/instruction.hpp"

namespace magic::asmx {

/// Classifies a mnemonic, in any ASCII letter case.
OpcodeClass classify_mnemonic(std::string_view mnemonic) noexcept;

/// True for classes that may transfer control away from the next address.
bool is_control_transfer(OpcodeClass c) noexcept;

/// True if instructions of this class continue to the next address
/// (conditional jumps and calls do; unconditional jumps/returns do not).
bool falls_through(OpcodeClass c) noexcept;

/// Table I attribute bucket membership.
bool counts_as_transfer(OpcodeClass c) noexcept;      // jmp/jcc
bool counts_as_call(OpcodeClass c) noexcept;          // call
bool counts_as_arithmetic(OpcodeClass c) noexcept;    // add/sub/...
bool counts_as_compare(OpcodeClass c) noexcept;       // cmp/test
bool counts_as_mov(OpcodeClass c) noexcept;           // mov family, push/pop
bool counts_as_termination(OpcodeClass c) noexcept;   // ret/hlt/...
bool counts_as_data_decl(OpcodeClass c) noexcept;     // db/dw/dd/...

}  // namespace magic::asmx
