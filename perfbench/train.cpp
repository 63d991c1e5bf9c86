// The training workload: core::train_model of the MSKCFG-best AMP model on
// the fixed MSKCFG-like corpus, repeated as fixed-epoch jobs over the run.
// The seed picks the model initialisation and the trainer's sample order
// and dropout stream; the corpus is the same for every seed, as a real
// training set is, so the cost of an epoch does not depend on the seed.

#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "data/corpus.hpp"
#include "magic/trainer.hpp"
#include "obs/metrics.hpp"
#include "scan_session.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace magic;

namespace {

struct Corpus {
  data::Dataset dataset;
  std::vector<std::size_t> indices;
};

Corpus make_corpus(const WorkloadSpec& spec) {
  util::ThreadPool pool(LoadShape::kTrainThreads);
  Corpus c;
  // A vanishing scale gives every family exactly train_per_family samples.
  c.dataset = data::generate_corpus(family_specs(spec), 1e-9, LoadShape::kModelSeed, pool,
                                    spec.train_per_family);
  for (std::size_t i = 0; i < c.dataset.size(); ++i) c.indices.push_back(i);
  return c;
}

struct Job {
  std::vector<double> losses;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::size_t graphs = 0;
  double graphs_per_s() const { return static_cast<double>(graphs) / seconds; }
};

Job train_job(const WorkloadSpec& spec, const Corpus& corpus, std::uint64_t model_seed) {
  core::DgcnnConfig config = spec.config;
  config.num_classes = corpus.dataset.num_families();
  util::Rng rng(model_seed);
  core::DgcnnModel model(config, rng);
  core::TrainOptions options;
  options.epochs = spec.train_epochs;
  options.batch_size = 10;
  options.learning_rate = 3e-3;
  options.weight_decay = 1e-4;
  options.threads = LoadShape::kTrainThreads;
  options.seed = model_seed;

  Job job;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const core::TrainResult result =
      core::train_model(model, corpus.dataset, corpus.indices, {}, options);
  job.seconds = ms_between(t0, Clock::now()) / 1e3;
  job.cpu_seconds = process_cpu_seconds() - cpu0;
  job.graphs = spec.train_epochs * corpus.indices.size();
  for (const core::EpochStats& e : result.history) job.losses.push_back(e.train_loss);
  return job;
}

/// FNV-1a over the bit patterns of the loss history.
std::uint64_t digest(const std::vector<double>& losses) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (double loss : losses) {
    const auto bits = std::bit_cast<std::uint64_t>(loss);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

/// Every job's loss history must be finite and bitwise equal to the first
/// (reference) job's. Returns the number of mismatching jobs.
std::uint64_t check_histories(const std::vector<Job>& jobs, Report& report) {
  std::uint64_t bad = 0;
  const std::uint64_t reference = digest(jobs.front().losses);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    bool finite = !jobs[j].losses.empty();
    for (double loss : jobs[j].losses) finite = finite && std::isfinite(loss);
    if (!finite) {
      report.fail("training job " + std::to_string(j) + " has a non-finite loss history");
      ++bad;
    } else if (digest(jobs[j].losses) != reference) {
      report.fail("training job " + std::to_string(j) +
                  " loss history differs bitwise from the reference job");
      ++bad;
    }
  }
  std::ostringstream os;
  os << "loss history digest " << std::hex << reference << std::dec << " (" << jobs.size()
     << " jobs, losses:";
  for (double loss : jobs.front().losses) os << " " << std::setprecision(17) << loss;
  os << ")";
  report.note(os.str());
  return bad;
}

}  // namespace

void run_train(const RunOptions& options, Report& report) {
  const WorkloadSpec& spec = *options.spec;
  // Every job trains from the run's seed, except that the first (reference)
  // job adds the reference offset, which is 0 unless a test asks otherwise.
  const std::uint64_t seed = options.seed;
  const std::uint64_t reference_seed = options.seed + options.reference_seed_offset;

  std::vector<double> setup_s;
  Corpus corpus;
  const std::size_t setups = options.trace ? 1 : LoadShape::kSetups;
  for (std::size_t k = 0; k < setups; ++k) {
    const Clock::time_point t0 = Clock::now();
    corpus = make_corpus(spec);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  std::ostringstream shape;
  shape << "corpus: " << corpus.dataset.size() << " graphs, "
        << corpus.dataset.num_families() << " families, mean vertices "
        << corpus.dataset.mean_vertices() << ", p10/p50/p90 vertices "
        << corpus.dataset.vertex_count_percentile(10) << " / "
        << corpus.dataset.vertex_count_percentile(50) << " / "
        << corpus.dataset.vertex_count_percentile(90) << "; " << spec.train_epochs
        << " epochs per job, " << LoadShape::kTrainThreads << " threads";
  report.note(shape.str());

  if (!options.trace) {
    std::vector<Job> jobs;
    const Clock::time_point start = Clock::now();
    while (jobs.size() < 2 || ms_between(start, Clock::now()) < options.seconds * 1e3) {
      jobs.push_back(train_job(spec, corpus, jobs.empty() ? reference_seed : seed));
    }
    const std::uint64_t bad = check_histories(jobs, report);
    report.count(jobs.size(), bad);

    std::vector<double> rates, wall_ms;
    double cpu = 0.0, graphs = 0.0;
    for (const Job& job : jobs) {
      rates.push_back(job.graphs_per_s());
      wall_ms.push_back(job.seconds * 1e3);
      cpu += job.cpu_seconds;
      graphs += static_cast<double>(job.graphs);
    }
    report.add("setup_s", median(setup_s), "s");
    report.add("graphs_per_s", median(rates), "graphs/s");
    report.add("cpu_ms_per_graph", cpu * 1e3 / graphs, "ms");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    std::ostringstream os;
    os << "train_graphs_per_s = " << report.get("graphs_per_s") << " graphs/s (median of "
       << jobs.size() << " jobs); job wall time p50 " << quantile(wall_ms, 0.5)
       << " ms, max " << quantile(wall_ms, 1.0) << " ms\nfailed_frac = "
       << static_cast<double>(bad) / jobs.size() << " (" << bad << " of " << jobs.size()
       << " jobs)\nsetup_s per set-up:";
    for (double s : setup_s) os << " " << s;
    report.note(os.str());
    return;
  }

  // Traced run: one untraced job, one job with obs collection (the
  // train.epoch.* phase histograms), then the trained configuration served
  // for a short traced scan phase and the per-layer replay.
  std::vector<Job> jobs;
  jobs.push_back(train_job(spec, corpus, reference_seed));
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset_values();
  jobs.push_back(train_job(spec, corpus, seed));
  obs::set_enabled(false);
  read_train_phases(report);
  report.count(jobs.size(), check_histories(jobs, report));
  const double overhead =
      100.0 * (jobs[0].graphs_per_s() - jobs[1].graphs_per_s()) / jobs[0].graphs_per_s();
  report.add("bench.trace_overhead_pct", overhead, "%");
  std::ostringstream os;
  os << "traced train: " << jobs[1].graphs_per_s() << " graphs/s (untraced "
     << jobs[0].graphs_per_s() << ")";
  report.note(os.str());

  SpanRecorder spans;
  ScanSession session(spec, options.seed, socket_path(options, "train"));
  const std::unique_ptr<core::MagicClassifier> reference = reference_model(options, session);
  const double sat_seconds = 0.2 * options.seconds;
  const double open_seconds = 0.6 * options.seconds;
  const PhaseResult base = session.saturated(sat_seconds);
  report.count(base.attempted, base.failed());
  traced_serve(session, sat_seconds, open_seconds, base.robust_rate(), report, spans);
  report.count(0, session.check(*reference, report));

  ReplayInputs inputs;
  inputs.listings = session.sample_listings(kReplayListings);
  inputs.labels = session.sample_labels(kReplayListings);
  inputs.checkpoint = session.checkpoint();
  run_replay(options, inputs, report, spans);
}

}  // namespace perfbench
