#pragma once
// First pass of CFG construction: instruction tagging (§IV-A, Algorithm 1).
//
// "To adapt to (potentially) hundreds of types of instructions, the first
// pass applies the visitor pattern to implement if-else free instruction
// tagging." Each instruction kind has its own visit method; the tagging
// visitor marks {start, branchTo, fallThrough, return} on the program.

#include "asmx/instruction.hpp"

namespace magic::asmx {

/// Visitor over instructions, dispatched on OpcodeClass. Override the
/// kinds you care about; defaults do nothing.
class InstructionVisitor {
 public:
  virtual ~InstructionVisitor() = default;

  virtual void visit_conditional_jump(Program&, std::size_t) {}
  virtual void visit_unconditional_jump(Program&, std::size_t) {}
  virtual void visit_call(Program&, std::size_t) {}
  virtual void visit_return(Program&, std::size_t) {}
  virtual void visit_termination(Program&, std::size_t) {}
  virtual void visit_default(Program&, std::size_t) {}
};

/// Dispatches `visitor` over every instruction of `program` in order.
void apply_visitor(Program& program, InstructionVisitor& visitor);

/// The tagging pass itself. After run():
///  - the first instruction and every branch target are marked `start`;
///  - conditional jumps carry branchTo and fallThrough, and both their
///    target and successor are marked `start` (Algorithm 1);
///  - unconditional jumps carry branchTo only; their successor starts a
///    new block;
///  - calls carry branchTo (the paper connects call edges in Algorithm 2)
///    and fall through;
///  - returns / terminators end their block; successors are marked `start`.
class TaggingPass : public InstructionVisitor {
 public:
  /// Runs the full first pass over the program.
  void run(Program& program);

  void visit_conditional_jump(Program& p, std::size_t i) override;
  void visit_unconditional_jump(Program& p, std::size_t i) override;
  void visit_call(Program& p, std::size_t i) override;
  void visit_return(Program& p, std::size_t i) override;
  void visit_termination(Program& p, std::size_t i) override;
  void visit_default(Program& p, std::size_t i) override;

  /// Branch targets that did not resolve to an instruction address
  /// (tail calls into imports, data, packer tricks); counted for telemetry.
  std::size_t unresolved_targets() const noexcept { return unresolved_targets_; }

 private:
  /// Marks P[addr].start when addr maps to an instruction; otherwise counts
  /// it as unresolved and returns false.
  bool mark_start_at(Program& p, std::uint64_t addr) noexcept;

  std::size_t unresolved_targets_ = 0;
};

}  // namespace magic::asmx
