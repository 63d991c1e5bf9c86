#include "acfg/extractor.hpp"

#include "acfg/attributes.hpp"
#include "cfg/cfg_builder.hpp"
#include "obs/trace.hpp"

namespace magic::acfg {

Acfg extract_acfg(const cfg::ControlFlowGraph& graph) {
  // The attribute loop is the paper's "tensorize" stage: Table I features
  // per basic block into the n x kNumChannels matrix.
  MAGIC_OBS_SPAN(attrs, "extract.attributes");
  const std::size_t n = graph.num_blocks();
  Acfg out;
  out.out_edges = graph.adjacency();
  out.attributes = tensor::Tensor({n, static_cast<std::size_t>(kNumChannels)});
  for (std::size_t i = 0; i < n; ++i) {
    const auto attrs =
        block_attributes(graph.instructions(graph.block(i)), out.out_edges[i].size());
    for (std::size_t c = 0; c < kNumChannels; ++c) {
      out.attributes[i * kNumChannels + c] = attrs[c];
    }
  }
  out.validate();
  return out;
}

Acfg extract_acfg_from_listing(std::string_view listing) {
  MAGIC_OBS_SPAN(total, "extract.pipeline");
  Acfg out = extract_acfg(cfg::CfgBuilder::build_from_listing(listing));
#ifdef MAGIC_OBS_BUILD
  if (obs::enabled()) {
    obs::MetricsRegistry::global().counter("extract.graphs").add();
  }
#endif
  return out;
}

std::vector<Acfg> extract_batch(const std::vector<std::string>& listings,
                                util::ThreadPool& pool) {
  std::vector<Acfg> results(listings.size());
  pool.parallel_for(listings.size(), [&](std::size_t i) {
    results[i] = extract_acfg_from_listing(listings[i]);
  });
  return results;
}

}  // namespace magic::acfg
