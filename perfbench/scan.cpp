// The scan workloads: set-up, the saturated and open-loop phases, the
// correctness checks and the metrics they give.

#include <unistd.h>

#include <filesystem>
#include <iomanip>
#include <sstream>

#include "obs/metrics.hpp"
#include "scan_session.hpp"

namespace perfbench {

using namespace magic;

namespace {

constexpr std::size_t kCycles = 4;
// Share of --seconds given to the open loop: enough that every workload's
// rate gives lat_p99_ms at least kMinOpenSamples requests at --seconds 25.
constexpr double kOpenShare = 0.6;
constexpr std::size_t kMinOpenSamples = 1000;

void note_open_samples(const PhaseResult& open, Report& report) {
  if (open.latency_ms.size() >= kMinOpenSamples) return;
  report.note("WARNING: " + std::to_string(open.latency_ms.size()) +
              " open-loop samples, fewer than " + std::to_string(kMinOpenSamples) +
              ": lat_p99_ms rests on " +
              std::to_string(open.latency_ms.size() / 100) + " tail samples");
}

}  // namespace

std::string socket_path(const RunOptions& options, const std::string& tag) {
  std::filesystem::create_directories(options.out_dir);
  return options.out_dir + "/s" + std::to_string(::getpid()) + "-" + tag + ".sock";
}

std::unique_ptr<core::MagicClassifier> reference_model(const RunOptions& options,
                                                       const ScanSession& session) {
  if (options.reference_seed_offset != 0) {
    return fit_scan_model(*options.spec, LoadShape::kModelSeed + options.reference_seed_offset);
  }
  std::istringstream in(session.checkpoint());
  return std::make_unique<core::MagicClassifier>(core::MagicClassifier::load(in));
}

void read_train_phases(Report& report) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  for (const char* phase : {"forward", "backward", "reduce", "optimizer"}) {
    const util::Histogram h =
        registry.histogram(std::string("train.epoch.") + phase + "_ms").snapshot();
    report.add(std::string("train.") + phase + "_ms", h.count() ? h.mean() : 0.0, "ms");
  }
}

double traced_serve(ScanSession& session, double sat_seconds, double open_seconds,
                    double untraced_rps, Report& report, SpanRecorder& spans) {
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset_values();
  session.begin_delta();
  const PhaseResult sat = session.saturated(sat_seconds, &spans);
  const ServerDelta sat_d = session.end_delta();
  session.begin_delta();
  const PhaseResult open = session.open_loop(open_seconds, &spans);
  const ServerDelta open_d = session.end_delta();
  obs::set_enabled(false);

  std::ostringstream counters;
  counters << "obs counters after the traced phases: "
           << obs::MetricsRegistry::global().snapshot_json();
  report.note(counters.str());

  const double traced_rps = sat.robust_rate();
  const double client_p50 = open.sliced_latency_ms(0.5);
  report.add("client.lat_p50_ms", client_p50, "ms");
  report.add("client.lat_p99_ms", open.sliced_latency_ms(0.99), "ms");
  auto server = [&](const std::string& prefix, const ServerDelta& d) {
    report.add("serve.server." + prefix + "lat_p50_ms", d.server_lat_p50_ms, "ms");
    report.add("serve.server." + prefix + "mean_batch", d.mean_batch(), "count");
    report.add("serve.server." + prefix + "packed_frac",
               d.batches ? static_cast<double>(d.packed_batches) / d.batches : 0.0, "ratio");
    report.add("serve.server." + prefix + "rejected", static_cast<double>(d.rejected),
               "count");
  };
  server("", open_d);
  server("sat_", sat_d);
  report.add("serve.reactor.read_pauses",
             static_cast<double>(sat_d.read_pauses + open_d.read_pauses), "count");
  const double requests = static_cast<double>(sat_d.reactor_requests + open_d.reactor_requests);
  report.add("serve.reactor.wakeups_per_scan",
             requests > 0 ? static_cast<double>(sat_d.wakeups + open_d.wakeups) / requests : 0.0,
             "ratio");
  report.add("serve.front_ms", client_p50 - open_d.server_lat_p50_ms, "ms");
  const std::uint64_t hits = sat_d.cache_hits + open_d.cache_hits;
  const std::uint64_t lookups = hits + sat_d.cache_misses + open_d.cache_misses;
  report.add("cache.hit_ratio", lookups ? static_cast<double>(hits) / lookups : 0.0, "ratio");
  report.add("cache.lookups", static_cast<double>(lookups), "count");
  report.add("bench.gen_lag_p99_ms", quantile(open.lag_ms, 0.99), "ms");
  report.add("bench.open_samples", static_cast<double>(open.latency_ms.size()), "count");
  note_open_samples(open, report);

  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << "traced serve: scan_rps " << traced_rps
     << " (untraced " << untraced_rps << "), client lat_p50 " << client_p50
     << " ms, cache hits " << hits << "/" << lookups << " lookups";
  report.note(os.str());
  report.count(sat.attempted + open.attempted, sat.failed() + open.failed());
  return traced_rps;
}

void run_scan(const RunOptions& options, Report& report) {
  const WorkloadSpec& spec = *options.spec;
  const double sat_seconds = (1.0 - kOpenShare) * options.seconds;
  const double open_seconds = kOpenShare * options.seconds;
  const std::size_t setups = options.trace ? 1 : LoadShape::kSetups;

  // Set-up, repeated: listing generation, model fit, daemon start, warm-up.
  std::vector<double> setup_s;
  std::unique_ptr<ScanSession> session;
  std::string first_checkpoint;
  for (std::size_t k = 0; k < setups; ++k) {
    session.reset();
    if (options.trace) obs::set_enabled(true);  // train.epoch.* of the fit
    const Clock::time_point t0 = Clock::now();
    session = std::make_unique<ScanSession>(spec, options.seed,
                                            socket_path(options, std::to_string(k)));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (options.trace) {
      obs::set_enabled(false);
      read_train_phases(report);
      obs::MetricsRegistry::global().reset_values();
    }
    if (k == 0) {
      first_checkpoint = session->checkpoint();
    } else if (session->checkpoint() != first_checkpoint) {
      report.fail("model fit is not deterministic across set-ups");
    }
  }
  const std::unique_ptr<core::MagicClassifier> reference = reference_model(options, *session);

  if (!options.trace) {
    // The two phases alternate in kCycles rounds, so each metric samples the
    // whole run rather than one stretch of it (the host's speed drifts).
    PhaseResult sat;
    PhaseResult open;
    session->begin_delta();
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
      sat.append(session->saturated(sat_seconds / kCycles));
      open.append(session->open_loop(open_seconds / kCycles));
    }
    const ServerDelta delta = session->end_delta();
    // Before the checks: their reference scoring is the benchmark's own work.
    const double rss_after_phases = peak_rss_mb();
    const std::uint64_t mismatches = session->check(*reference, report);

    const std::uint64_t attempted = sat.attempted + open.attempted;
    const std::uint64_t failed = sat.failed() + open.failed() + mismatches;
    report.count(attempted, failed);
    const double rps = sat.robust_rate();
    report.add("setup_s", median(setup_s), "s");
    report.add("graphs_per_s", rps, "graphs/s");
    report.add("cpu_ms_per_graph", sat.robust_cpu_ms_per_ok(), "ms");
    report.add("peak_rss_mb", rss_after_phases, "MiB");

    const std::uint64_t hits = delta.cache_hits;
    const std::uint64_t lookups = hits + delta.cache_misses;
    const double lag_p99 = quantile(open.lag_ms, 0.99);
    std::ostringstream os;
    os << std::setprecision(6) << "scan_rps = " << rps << " verdicts/s ("
       << sat.ok_in_window << " ok in " << sat.seconds << " s, saturated closed loop, "
       << LoadShape::kConnections << " connections x window " << LoadShape::kWindow << ")\n"
       << "cpu_ms_per_scan = " << report.get("cpu_ms_per_graph") << " ms\n"
       << "open loop: " << open.latency_ms.size() << " samples at " << spec.open_rate
       << " req/s (Poisson), lat_p50_ms = " << open.sliced_latency_ms(0.5)
       << " ms, lat_p99_ms = " << open.sliced_latency_ms(0.99)
       << " ms, generator lag p99 " << lag_p99 << " ms\n"
       << "failed_frac = " << (attempted ? static_cast<double>(failed) / attempted : 0.0)
       << " (" << failed << " of " << attempted << ": " << sat.errors + open.errors
       << " error, " << sat.refused + open.refused << " refused, "
       << sat.expired + open.expired << " expired, " << mismatches << " wrong verdict)\n"
       << "cache hit ratio " << (lookups ? static_cast<double>(hits) / lookups : 0.0)
       << " (" << hits << " hits / " << lookups << " lookups); repeated listings "
       << session->repeated_picks() << " of " << session->timed_picks() << " requests\n"
       << "saturated slices (ok/s):";
    for (double rate : sat.slice_rate) os << " " << rate;
    os << "\nsetup_s per set-up:";
    for (double s : setup_s) os << " " << s;
    report.note(os.str());
    note_open_samples(open, report);
    if (spec.dup_share == 0.0 && hits != 0) {
      report.fail("unique workload produced " + std::to_string(hits) + " cache hits");
    }
    if (lag_p99 > 50.0) report.fail("open-loop generator ran late (lag p99 > 50 ms)");
    return;
  }

  // Traced run: an untraced saturated phase for the overhead baseline, the
  // timed phases again with obs collection and client spans, then the
  // per-layer replay.
  SpanRecorder spans;
  const PhaseResult base = session->saturated(sat_seconds);
  report.count(base.attempted, base.failed());
  const double untraced_rps = base.robust_rate();
  const double traced_rps =
      traced_serve(*session, sat_seconds, open_seconds, untraced_rps, report, spans);
  const double overhead = 100.0 * (untraced_rps - traced_rps) / untraced_rps;
  report.add("bench.trace_overhead_pct", overhead, "%");
  report.count(0, session->check(*reference, report));

  ReplayInputs inputs;
  inputs.listings = session->sample_listings(kReplayListings);
  inputs.labels = session->sample_labels(kReplayListings);
  inputs.checkpoint = session->checkpoint();
  session.reset();
  run_replay(options, inputs, report, spans);
}

}  // namespace perfbench
