#pragma once
// Control flow graph: vertices are basic blocks ("a straight sequence of
// code or assembly instructions without any control flow transition except
// at its exit"), edges are fall-through or branch transitions (§II-A).
//
// The graph owns the asmx::Program it was built from; a block is a run of
// consecutive instructions in it (first index + count), not a copy. Runs
// are indices, so copying or moving a graph keeps them valid.

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asmx/instruction.hpp"

namespace magic::cfg {

using BlockId = std::size_t;
inline constexpr BlockId kInvalidBlock = static_cast<BlockId>(-1);

/// A basic block: a run of contiguous instructions of the graph's program
/// plus out-edges to successor blocks.
struct BasicBlock {
  BlockId id = kInvalidBlock;
  std::uint64_t start_addr = 0;
  std::size_t first = 0;  // program index of the first instruction
  std::size_t count = 0;  // instructions in the run
  std::vector<BlockId> successors;  // in insertion order; duplicates removed

  /// Appends a successor edge if not already present.
  void add_successor(BlockId target);
};

/// Directed control flow graph over basic blocks.
class ControlFlowGraph {
 public:
  ControlFlowGraph() = default;
  /// An edgeless graph over `program`; blocks are added by CfgBuilder.
  explicit ControlFlowGraph(asmx::Program program) : program_(std::move(program)) {}

  /// Creates a new empty block starting at `addr` and returns its id.
  BlockId add_block(std::uint64_t addr);

  /// The program the block runs index into.
  const asmx::Program& program() const noexcept { return program_; }

  /// The instructions of block `b` (a view into program()).
  std::span<const asmx::Instruction> instructions(const BasicBlock& b) const noexcept {
    return std::span<const asmx::Instruction>(program_.instructions).subspan(b.first, b.count);
  }

  BasicBlock& block(BlockId id) { return blocks_.at(id); }
  const BasicBlock& block(BlockId id) const { return blocks_.at(id); }

  std::size_t num_blocks() const noexcept { return blocks_.size(); }
  std::size_t num_edges() const noexcept;
  const std::vector<BasicBlock>& blocks() const noexcept { return blocks_; }

  /// Block whose start address equals `addr`, or kInvalidBlock.
  BlockId block_at(std::uint64_t addr) const noexcept;

  /// Entry block (lowest start address), or kInvalidBlock when empty.
  BlockId entry() const noexcept;

  /// Out-edge adjacency list indexed by block id (successor block ids).
  std::vector<std::vector<std::size_t>> adjacency() const;

  /// Total instruction count across all blocks.
  std::size_t num_instructions() const noexcept;

  /// Graphviz DOT rendering (block address + instruction count per node).
  std::string to_dot() const;

 private:
  asmx::Program program_;
  std::vector<BasicBlock> blocks_;
  std::unordered_map<std::uint64_t, BlockId> by_addr_;
};

}  // namespace magic::cfg
