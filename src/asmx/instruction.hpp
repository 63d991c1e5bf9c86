#pragma once
// Instruction model for the assembly front end.
//
// MAGIC consumes disassembled listings (the paper uses IDA Pro .asm output;
// we parse an equivalent plain-text listing format). A parsed program is
// "a one-to-one mapping from sorted addresses to assembly instructions,
// P : Z+ -> I" (§IV-A). Instructions carry the tag set
// {start, branchTo, fallThrough, return} that the first pass computes and
// the second pass (CfgBuilder) consumes.
//
// An Instruction keeps only what those passes, the Table I attributes and
// the n-gram baseline read: address, size, opcode class, immediate count
// and first branch target. Mnemonic and operand text stay in the listing;
// the parser classifies them through string_views and drops them, so a
// record is fixed-size and a Program is one flat array.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace magic::asmx {

/// Coarse operand classification; enough for attribute extraction.
enum class OperandKind {
  Register,   // eax, rbx, ...
  Immediate,  // numeric constant
  Memory,     // [...] effective address
  Target,     // code address / label reference (jump & call destinations)
  Other,
};

/// One classified operand. `text` views the caller's buffer: the operand
/// trimmed and with size/kind keywords ("short", "dword ptr", ...) peeled
/// off, in its original case.
struct Operand {
  OperandKind kind = OperandKind::Other;
  std::string_view text;
};

/// Semantic groups used both by CFG construction (jump/call/return) and by
/// the Table I block attributes (transfer/call/arith/compare/mov/termination/
/// data declaration).
enum class OpcodeClass : std::uint8_t {
  ConditionalJump,
  UnconditionalJump,
  Call,
  Return,
  Arithmetic,
  Compare,
  Mov,
  Termination,   // non-return terminators (hlt, int3, ud2, ...)
  DataDecl,      // db/dw/dd/dq/align pseudo-instructions
  Other,
};

/// A single disassembled instruction plus the CFG-construction tags
/// (Algorithm 1 of the paper).
struct Instruction {
  std::uint64_t addr = 0;
  /// First branch/call target operand of a control transfer (a resolved
  /// label or a hex address); findDstAddr of Algorithm 1 reads it.
  std::optional<std::uint64_t> target;
  std::uint32_t size = 1;  // bytes; fall-through target is addr + size
  /// Numeric-constant operands (Table I attribute). Always 0 on control
  /// transfers, whose numbers are targets.
  std::uint32_t immediates = 0;
  OpcodeClass opclass = OpcodeClass::Other;

  // --- tags written by the first (tagging) pass --------------------------
  bool start = false;                        // begins a basic block
  bool fall_through = false;                 // control may reach addr + size
  bool is_return = false;
  std::optional<std::uint64_t> branch_to;    // jump/call destination
};

/// A program: instructions sorted by strictly increasing address.
struct Program {
  std::vector<Instruction> instructions;

  /// Index of the instruction at `addr`, or npos.
  std::size_t index_of(std::uint64_t addr) const noexcept;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

}  // namespace magic::asmx
