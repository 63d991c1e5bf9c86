#pragma once
// Block-level attributes of Table I.
//
// Each CFG vertex (basic block) is summarized by numeric attributes that
// "initially ... do not contain any structural information" (§II-B): nine
// code-sequence counters plus two vertex-structure values. DGCNN then
// aggregates them through the graph structure.

#include <array>
#include <cstddef>
#include <span>
#include <string_view>

#include "asmx/instruction.hpp"

namespace magic::acfg {

/// Indices of the attribute channels, in Table I order.
enum AttributeChannel : std::size_t {
  kNumericConstants = 0,
  kTransferInsts = 1,
  kCallInsts = 2,
  kArithmeticInsts = 3,
  kCompareInsts = 4,
  kMovInsts = 5,
  kTerminationInsts = 6,
  kDataDeclInsts = 7,
  kTotalInsts = 8,
  kOffspring = 9,        // out-degree of the vertex
  kVertexInsts = 10,     // instructions in the vertex
  kNumChannels = 11,
};

/// Human-readable channel names (Table I rows).
std::string_view channel_name(std::size_t channel) noexcept;

/// Computes the Table I attribute vector of one basic block from its run
/// of instructions (cfg::ControlFlowGraph::instructions()).
/// `out_degree` is the vertex's offspring count in the CFG.
std::array<double, kNumChannels> block_attributes(std::span<const asmx::Instruction> block,
                                                  std::size_t out_degree) noexcept;

}  // namespace magic::acfg
