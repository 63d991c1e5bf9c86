// Per-layer replay: the workload's own listings through each module's
// public calls on one thread, every call inside a span, so each layer's
// self time comes straight from the span log.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <sstream>

#include "acfg/extractor.hpp"
#include "asmx/parser.hpp"
#include "asmx/tagging.hpp"
#include "cache/acfg_hash.hpp"
#include "cache/verdict_cache.hpp"
#include "cfg/cfg_builder.hpp"
#include "magic/graph_batch.hpp"
#include "nn/graph_conv.hpp"
#include "nn/loss.hpp"
#include "perfbench.hpp"
#include "serve/verdict.hpp"
#include "serve/wire.hpp"
#include "tensor/sparse.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace magic;

namespace {

constexpr std::size_t kPasses = 2;  // recorded passes, after one warm pass
constexpr std::size_t kPack = 8;

/// Mean duration in `unit_scale` units of the spans named `name`.
double mean_span(const SpanRecorder& spans, const std::string& name, double unit_scale) {
  const auto self = spans.self_time_us();
  const auto counts = spans.counts();
  const auto it = counts.find(name);
  if (it == counts.end() || it->second == 0) return 0.0;
  return self.at(name) / static_cast<double>(it->second) * unit_scale;
}

tensor::Tensor random_tensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  tensor::Tensor t({rows, cols});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-1.0, 1.0);
  return t;
}

serve::Verdict to_verdict(const tensor::Tensor& log_probs, std::size_t row,
                          const std::vector<std::string>& families) {
  serve::Verdict v;
  v.status = serve::VerdictStatus::Ok;
  const std::size_t classes = log_probs.dim(1);
  for (std::size_t c = 0; c < classes; ++c) {
    v.prediction.probabilities.push_back(std::exp(log_probs[row * classes + c]));
  }
  const auto best = std::max_element(v.prediction.probabilities.begin(),
                                     v.prediction.probabilities.end());
  v.prediction.family_index =
      static_cast<std::size_t>(best - v.prediction.probabilities.begin());
  v.prediction.family_name = families.at(v.prediction.family_index);
  return v;
}

/// Calls `fn` until `min_ms` have passed; returns microseconds per call.
template <typename F>
double time_per_call_us(F&& fn, double min_ms) {
  std::size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point now = t0;
  do {
    fn();
    ++calls;
    now = Clock::now();
  } while (ms_between(t0, now) < min_ms);
  return us_between(t0, now) / static_cast<double>(calls);
}

}  // namespace

void run_replay(const RunOptions& options, const ReplayInputs& inputs, Report& report,
                SpanRecorder& spans_out) {
  std::istringstream checkpoint(inputs.checkpoint);
  core::MagicClassifier classifier = core::MagicClassifier::load(checkpoint);
  core::DgcnnModel& model = *classifier.model();
  model.set_training(false);
  const std::vector<std::string>& families = classifier.family_names();
  const core::DgcnnConfig& config = classifier.config();

  SpanRecorder spans;
  std::vector<acfg::Acfg> graphs;
  std::vector<std::size_t> listing_bytes;

  // Front end, cache and batch-1 forward, one request at a time.
  for (std::size_t pass = 0; pass <= kPasses; ++pass) {
    const bool recorded = pass > 0;
    SpanRecorder scratch;
    SpanRecorder& rec = recorded ? spans : scratch;
    // A fresh cache per pass: each key is probed once before its insert (a
    // miss) and once after (a hit).
    cache::VerdictCache cache;
    for (std::size_t i = 0; i < inputs.listings.size(); ++i) {
      const std::string line = scan_line('r', i, serve::wire::base64_encode(inputs.listings[i]));
      ScopedSpan root(rec, "replay.request", i);
      std::optional<serve::wire::Request> request;
      {
        ScopedSpan s(rec, "serve.wire.decode", i, root.id());
        request = serve::wire::parse_request_line(line);
      }
      asmx::ParseResult parsed;
      {
        ScopedSpan s(rec, "asmx.parse", i, root.id());
        parsed = asmx::parse_listing(request->payload);
      }
      {
        ScopedSpan s(rec, "asmx.tag", i, root.id());
        asmx::TaggingPass tagging;
        tagging.run(parsed.program);
      }
      cfg::ControlFlowGraph graph;
      {
        ScopedSpan s(rec, "cfg.build", i, root.id());
        graph = cfg::CfgBuilder().connect_blocks(parsed.program);
      }
      acfg::Acfg sample;
      {
        ScopedSpan s(rec, "acfg.attributes", i, root.id());
        sample = acfg::extract_acfg(graph);
      }
      cache::CacheKey key;
      {
        ScopedSpan s(rec, "cache.hash", i, root.id());
        key = cache::acfg_content_hash(sample);
      }
      {
        ScopedSpan s(rec, "cache.probe", i, root.id());
        (void)cache.get(key);
      }
      const core::GraphBatch batch = [&] {
        ScopedSpan s(rec, "magic.pack1", i, root.id());
        return core::GraphBatch::pack(std::span<const acfg::Acfg>(&sample, 1));
      }();
      tensor::Tensor log_probs;
      {
        ScopedSpan s(rec, "magic.forward_b1", i, root.id());
        log_probs = model.predict_batch(batch);
      }
      const serve::Verdict verdict = to_verdict(log_probs, 0, families);
      {
        ScopedSpan s(rec, "serve.wire.encode", i, root.id());
        (void)serve::wire::verdict_to_json(request_id('r', i), verdict);
      }
      cache.insert(key, cache::CachedVerdict{verdict.prediction.family_index,
                                             verdict.prediction.family_name,
                                             verdict.prediction.probabilities,
                                             {}});
      {
        ScopedSpan s(rec, "cache.probe", i, root.id());
        (void)cache.get(key);
      }
      if (pass == 0) {
        graphs.push_back(std::move(sample));
        listing_bytes.push_back(inputs.listings[i].size());
      }
    }
  }

  // Whole-listing extraction (the paper's ACFG row), packs of 8, the graph
  // convolution stack alone, and a training step per graph.
  util::Rng rng(LoadShape::kModelSeed);
  nn::GraphConvStack stack(config.graph_conv_stack_config(), rng);
  stack.set_grad_enabled(false);
  core::DgcnnConfig train_config = config;
  core::DgcnnModel trainee(train_config, rng, model.sort_k());
  trainee.set_training(true);
  for (std::size_t pass = 0; pass <= kPasses; ++pass) {
    SpanRecorder scratch;
    SpanRecorder& rec = pass > 0 ? spans : scratch;
    for (std::size_t i = 0; i < inputs.listings.size(); ++i) {
      ScopedSpan s(rec, "acfg.extract", i);
      (void)acfg::extract_acfg_from_listing(inputs.listings[i]);
    }
    for (std::size_t first = 0; first + kPack <= graphs.size(); first += kPack) {
      const std::span<const acfg::Acfg> pack(graphs.data() + first, kPack);
      const core::GraphBatch batch = [&] {
        ScopedSpan s(rec, "magic.pack8", first);
        return core::GraphBatch::pack(pack);
      }();
      {
        ScopedSpan s(rec, "magic.forward_b8", first);
        (void)model.predict_batch(batch);
      }
      const tensor::SparseMatrix prop = batch.propagation_operator(config.normalize_propagation);
      tensor::Tensor x = batch.attributes();
      if (config.log1p_attributes) {
        x = tensor::map(x, [](double v) { return std::log1p(v); });
      }
      {
        ScopedSpan s(rec, "nn.graph_conv_b8", first);
        (void)stack.forward(prop, x);
      }
    }
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      ScopedSpan s(rec, "magic.train_step", i);
      const tensor::Tensor log_probs = trainee.forward(graphs[i]);
      nn::NllLoss loss;
      (void)loss.forward(log_probs,
                         static_cast<std::size_t>(inputs.labels[i]) % log_probs.size());
      trainee.backward(loss.backward());
    }
  }

  // Kernels at the workload's graph-convolution shape.
  double vertices = 0.0;
  std::vector<double> vertex_counts;
  for (const acfg::Acfg& g : graphs) vertex_counts.push_back(static_cast<double>(g.num_vertices()));
  for (double v : vertex_counts) vertices += v;
  const auto n = static_cast<std::size_t>(std::lround(vertices / graphs.size()));
  const std::size_t c_in = config.graph_conv_channels.front();
  const std::size_t c_out = config.graph_conv_channels.size() > 1
                                ? config.graph_conv_channels[1]
                                : config.graph_conv_channels.front();
  const tensor::Tensor a = random_tensor(n, c_in, rng);
  const tensor::Tensor b = random_tensor(c_in, c_out, rng);
  const double gemm_us = time_per_call_us([&] { (void)tensor::matmul(a, b); }, 200.0);
  const double gemm_flops = 2.0 * n * c_in * c_out;
  const double gemm_bytes = 8.0 * (n * c_in + c_in * c_out + n * c_out);

  const core::GraphBatch batch8 =
      core::GraphBatch::pack(std::span<const acfg::Acfg>(graphs.data(), kPack));
  const tensor::SparseMatrix prop = batch8.propagation_operator(config.normalize_propagation);
  const tensor::Tensor dense = random_tensor(prop.cols(), c_in, rng);
  const double spmm_us = time_per_call_us([&] { (void)prop.multiply(dense); }, 200.0);
  const double spmm_flops = 2.0 * prop.nnz() * c_in;
  // CSR values + column indices + row pointers, dense input and output.
  const double spmm_bytes = 16.0 * prop.nnz() + 8.0 * (prop.rows() + 1) +
                            8.0 * (prop.cols() * c_in + prop.rows() * c_in);

  // ---- Metrics ----
  report.add("serve.wire.decode_us", mean_span(spans, "serve.wire.decode", 1.0), "us");
  report.add("serve.wire.encode_us", mean_span(spans, "serve.wire.encode", 1.0), "us");
  report.add("asmx.parse_ms", mean_span(spans, "asmx.parse", 1e-3), "ms");
  report.add("asmx.tag_ms", mean_span(spans, "asmx.tag", 1e-3), "ms");
  report.add("cfg.build_ms", mean_span(spans, "cfg.build", 1e-3), "ms");
  report.add("acfg.attributes_ms", mean_span(spans, "acfg.attributes", 1e-3), "ms");
  report.add("acfg.extract_ms", mean_span(spans, "acfg.extract", 1e-3), "ms");
  report.add("cache.hash_us", mean_span(spans, "cache.hash", 1.0), "us");
  report.add("cache.probe_us", mean_span(spans, "cache.probe", 1.0), "us");
  report.add("magic.pack_us", mean_span(spans, "magic.pack8", 1.0), "us");
  report.add("magic.forward_b1_ms", mean_span(spans, "magic.forward_b1", 1e-3), "ms");
  const double b8 = mean_span(spans, "magic.forward_b8", 1e-3) / kPack;
  report.add("magic.forward_b8_ms", b8, "ms");
  report.add("magic.train_step_ms", mean_span(spans, "magic.train_step", 1e-3), "ms");
  const double conv = mean_span(spans, "nn.graph_conv_b8", 1e-3) / kPack;
  report.add("nn.graph_conv_ms", conv, "ms");
  report.add("nn.post_conv_ms", b8 - conv, "ms");
  report.add("tensor.gemm_gflops", gemm_flops / gemm_us * 1e-3, "GFLOP/s");
  report.add("tensor.gemm_flops", gemm_flops, "count");
  report.add("tensor.gemm_bytes", gemm_bytes, "bytes");
  report.add("tensor.spmm_us", spmm_us, "us");
  report.add("tensor.spmm_flops", spmm_flops, "count");
  report.add("tensor.spmm_bytes", spmm_bytes, "bytes");

  // ---- Self-time shares of one request's front-to-verdict path ----
  const auto self = spans.self_time_us();
  double request_total = 0.0;
  for (const SpanRecorder::Span& s : spans.spans()) {
    if (s.name == "replay.request") request_total += s.end_us - s.start_us;
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(1)
     << "replay: " << inputs.listings.size() << " listings x " << kPasses
     << " passes, single thread; self-time share of one request:";
  for (const char* name : {"serve.wire.decode", "asmx.parse", "asmx.tag", "cfg.build",
                           "acfg.attributes", "cache.hash", "cache.probe", "magic.pack1",
                           "magic.forward_b1", "serve.wire.encode", "replay.request"}) {
    const auto it = self.find(name);
    const double share = it == self.end() ? 0.0 : 100.0 * it->second / request_total;
    os << "\n  " << std::left << std::setw(20) << name << std::right << std::setw(6) << share
       << " %";
  }
  std::vector<double> bytes(listing_bytes.begin(), listing_bytes.end());
  os << std::setprecision(0) << "\nlisting bytes p10/p50/p90: " << quantile(bytes, 0.1) << " / "
     << quantile(bytes, 0.5) << " / " << quantile(bytes, 0.9)
     << "\nvertices p10/p50/p90: " << quantile(vertex_counts, 0.1) << " / "
     << quantile(vertex_counts, 0.5) << " / " << quantile(vertex_counts, 0.9)
     << " (mean " << std::setprecision(1) << vertices / graphs.size() << ")"
     << "\ngemm shape " << n << "x" << c_in << " * " << c_in << "x" << c_out
     << ", spmm " << prop.rows() << "x" << prop.cols() << " nnz " << prop.nnz() << " * "
     << c_in << " columns (bytes computed from tensor sizes)";
  report.note(os.str());

  spans_out.merge(spans);
  std::filesystem::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/spans-" + options.spec->name + "-" +
                           std::to_string(options.seed) + ".jsonl";
  spans_out.write_jsonl(path);
  report.note("spans written to " + path + " (" + std::to_string(spans_out.spans().size()) +
              " spans)");
  paper_reference_rows(report);
}

}  // namespace perfbench
