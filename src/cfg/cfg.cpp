#include "cfg/cfg.hpp"

#include <algorithm>
#include <sstream>

namespace magic::cfg {

void BasicBlock::add_successor(BlockId target) {
  if (std::find(successors.begin(), successors.end(), target) == successors.end()) {
    successors.push_back(target);
  }
}

BlockId ControlFlowGraph::add_block(std::uint64_t addr) {
  BasicBlock b;
  b.id = blocks_.size();
  b.start_addr = addr;
  blocks_.push_back(std::move(b));
  by_addr_.emplace(addr, blocks_.back().id);
  return blocks_.back().id;
}

std::size_t ControlFlowGraph::num_edges() const noexcept {
  std::size_t m = 0;
  for (const auto& b : blocks_) m += b.successors.size();
  return m;
}

BlockId ControlFlowGraph::block_at(std::uint64_t addr) const noexcept {
  const auto it = by_addr_.find(addr);
  return it == by_addr_.end() ? kInvalidBlock : it->second;
}

BlockId ControlFlowGraph::entry() const noexcept {
  if (blocks_.empty()) return kInvalidBlock;
  BlockId best = 0;
  for (BlockId i = 1; i < blocks_.size(); ++i) {
    if (blocks_[i].start_addr < blocks_[best].start_addr) best = i;
  }
  return best;
}

std::vector<std::vector<std::size_t>> ControlFlowGraph::adjacency() const {
  std::vector<std::vector<std::size_t>> adj(blocks_.size());
  for (const auto& b : blocks_) {
    adj[b.id].assign(b.successors.begin(), b.successors.end());
  }
  return adj;
}

std::size_t ControlFlowGraph::num_instructions() const noexcept {
  std::size_t n = 0;
  for (const auto& b : blocks_) n += b.count;
  return n;
}

std::string ControlFlowGraph::to_dot() const {
  std::ostringstream oss;
  oss << "digraph cfg {\n  node [shape=box];\n";
  for (const auto& b : blocks_) {
    oss << "  b" << b.id << " [label=\"0x" << std::hex << b.start_addr << std::dec
        << "\\n" << b.count << " insts\"];\n";
  }
  for (const auto& b : blocks_) {
    for (BlockId s : b.successors) {
      oss << "  b" << b.id << " -> b" << s << ";\n";
    }
  }
  oss << "}\n";
  return oss.str();
}

}  // namespace magic::cfg
