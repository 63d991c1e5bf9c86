#include "asmx/tagging.hpp"

namespace magic::asmx {

void apply_visitor(Program& program, InstructionVisitor& visitor) {
  for (std::size_t i = 0; i < program.instructions.size(); ++i) {
    switch (program.instructions[i].opclass) {
      case OpcodeClass::ConditionalJump: visitor.visit_conditional_jump(program, i); break;
      case OpcodeClass::UnconditionalJump: visitor.visit_unconditional_jump(program, i); break;
      case OpcodeClass::Call: visitor.visit_call(program, i); break;
      case OpcodeClass::Return: visitor.visit_return(program, i); break;
      case OpcodeClass::Termination: visitor.visit_termination(program, i); break;
      default: visitor.visit_default(program, i); break;
    }
  }
}

bool TaggingPass::mark_start_at(Program& p, std::uint64_t addr) noexcept {
  const std::size_t idx = p.index_of(addr);
  if (idx == Program::npos) {
    ++unresolved_targets_;
    return false;
  }
  p.instructions[idx].start = true;
  return true;
}

void TaggingPass::run(Program& program) {
  unresolved_targets_ = 0;
  if (!program.instructions.empty()) {
    program.instructions.front().start = true;  // entry block leader
  }
  apply_visitor(program, *this);
}

// Algorithm 1 of the paper, verbatim: the conditional jump branches to its
// target (marking it a leader) and falls through to the next instruction
// (also a leader). findDstAddr is the parser's `target` field: the first
// target operand that resolved.
void TaggingPass::visit_conditional_jump(Program& p, std::size_t i) {
  Instruction& cj = p.instructions[i];
  if (const auto dst = cj.target) {
    if (mark_start_at(p, *dst)) cj.branch_to = *dst;
  }
  cj.fall_through = true;
  mark_start_at(p, cj.addr + cj.size);
}

void TaggingPass::visit_unconditional_jump(Program& p, std::size_t i) {
  Instruction& j = p.instructions[i];
  if (const auto dst = j.target) {
    if (mark_start_at(p, *dst)) j.branch_to = *dst;
  }
  j.fall_through = false;
  // The instruction after an unconditional jump (if any) begins a new block.
  const std::size_t next = p.index_of(j.addr + j.size);
  if (next != Program::npos) p.instructions[next].start = true;
}

// Calls both branch to the callee (Algorithm 2 "creates an edge ... for any
// branching operations, e.g., jump or call") and fall through to the return
// site. External callees (no instruction at the target) produce no edge.
void TaggingPass::visit_call(Program& p, std::size_t i) {
  Instruction& c = p.instructions[i];
  if (const auto dst = c.target) {
    if (mark_start_at(p, *dst)) c.branch_to = *dst;
  }
  c.fall_through = true;
}

void TaggingPass::visit_return(Program& p, std::size_t i) {
  Instruction& r = p.instructions[i];
  r.is_return = true;
  r.fall_through = false;
  const std::size_t next = p.index_of(r.addr + r.size);
  if (next != Program::npos) p.instructions[next].start = true;
}

void TaggingPass::visit_termination(Program& p, std::size_t i) {
  Instruction& t = p.instructions[i];
  t.fall_through = false;
  const std::size_t next = p.index_of(t.addr + t.size);
  if (next != Program::npos) p.instructions[next].start = true;
}

void TaggingPass::visit_default(Program& p, std::size_t i) {
  p.instructions[i].fall_through = true;
}

}  // namespace magic::asmx
