#include "acfg/attributes.hpp"

#include "asmx/opcode_table.hpp"

namespace magic::acfg {

std::string_view channel_name(std::size_t channel) noexcept {
  switch (channel) {
    case kNumericConstants: return "# Numeric Constants";
    case kTransferInsts: return "# Transfer Instructions";
    case kCallInsts: return "# Call Instructions";
    case kArithmeticInsts: return "# Arithmetic Instructions";
    case kCompareInsts: return "# Compare Instructions";
    case kMovInsts: return "# Mov Instructions";
    case kTerminationInsts: return "# Termination Instructions";
    case kDataDeclInsts: return "# Data Declaration Instructions";
    case kTotalInsts: return "# Total Instructions";
    case kOffspring: return "# Offspring (Degree)";
    case kVertexInsts: return "# Instructions in the Vertex";
    default: return "?";
  }
}

std::array<double, kNumChannels> block_attributes(std::span<const asmx::Instruction> block,
                                                  std::size_t out_degree) noexcept {
  std::array<double, kNumChannels> a{};
  for (const auto& inst : block) {
    a[kNumericConstants] += static_cast<double>(inst.immediates);
    const asmx::OpcodeClass c = inst.opclass;
    if (asmx::counts_as_transfer(c)) a[kTransferInsts] += 1.0;
    if (asmx::counts_as_call(c)) a[kCallInsts] += 1.0;
    if (asmx::counts_as_arithmetic(c)) a[kArithmeticInsts] += 1.0;
    if (asmx::counts_as_compare(c)) a[kCompareInsts] += 1.0;
    if (asmx::counts_as_mov(c)) a[kMovInsts] += 1.0;
    if (asmx::counts_as_termination(c)) a[kTerminationInsts] += 1.0;
    if (asmx::counts_as_data_decl(c)) a[kDataDeclInsts] += 1.0;
    a[kTotalInsts] += 1.0;
  }
  a[kOffspring] = static_cast<double>(out_degree);
  a[kVertexInsts] = static_cast<double>(block.size());
  return a;
}

}  // namespace magic::acfg
