#pragma once
// ScanSession: one magicd-equivalent scan daemon (a serve::ModelRegistry
// behind serve::run_unix_daemon on a Unix socket) plus the load generator
// that drives it with base64 `scan` lines over a few pipelined connections.

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"
#include "serve/registry.hpp"

namespace perfbench {

/// Client-side totals of one load phase.
struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;  ///< rejected_queue_full / shutting_down
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;   ///< error status or lost response
  double seconds = 0.0;       ///< timed window
  std::uint64_t hot_picks = 0;  ///< requests that repeated a hot-set listing
  // Saturated phase.
  std::uint64_t ok_in_window = 0;  ///< ok verdicts received inside the window
  /// Each saturated window is cut into kSlices equal slices; per slice, ok
  /// verdicts per second and process CPU milliseconds per ok verdict.
  static constexpr std::size_t kSlices = 10;
  std::vector<double> slice_rate;
  std::vector<double> slice_cpu_ms;
  /// Interquartile means over the slices: robust to a transient slowdown
  /// of the host.
  double robust_rate() const { return interquartile_mean(slice_rate); }
  double robust_cpu_ms_per_ok() const { return interquartile_mean(slice_cpu_ms); }
  // Open-loop phase.
  /// Latency from due time in schedule order; non-ok requests count as the
  /// phase length.
  std::vector<double> latency_ms;
  /// Quantile q of each consecutive slice of kLatencySlice or more
  /// requests, median over the slices.
  static constexpr std::size_t kLatencySlice = 1000;
  double sliced_latency_ms(double q) const;
  std::vector<double> lag_ms;      ///< how late each send started
  std::uint64_t failed() const noexcept { return refused + expired + errors; }
  /// Adds `other`'s counts and appends its slices and samples.
  void append(const PhaseResult& other);
};

/// Server-side counters captured around a phase (ServerStats deltas and the
/// reactor block of the `stats` wire reply).
struct ServerDelta {
  std::uint64_t batches = 0;
  std::uint64_t packed_batches = 0;
  std::uint64_t rejected = 0;
  double batched_items = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t read_pauses = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t reactor_requests = 0;
  double server_lat_p50_ms = 0.0;  ///< obs "serve.latency_ms" p50 (traced phases)
  double mean_batch() const {
    return batches == 0 ? 0.0 : batched_items / static_cast<double>(batches);
  }
};

class ScanSession {
 public:
  /// Set-up: generates the request listings from `seed`, fits the served
  /// model with the fixed model seed, starts the daemon and warms it up.
  ScanSession(const WorkloadSpec& spec, std::uint64_t seed, const std::string& socket_path);
  ~ScanSession();
  ScanSession(const ScanSession&) = delete;
  ScanSession& operator=(const ScanSession&) = delete;

  /// The served model's checkpoint text (MagicClassifier::save).
  const std::string& checkpoint() const noexcept { return checkpoint_; }

  /// Closed loop: every connection keeps kWindow requests outstanding for
  /// `seconds`. With `spans`, one span per request (send -> response).
  PhaseResult saturated(double seconds, SpanRecorder* spans = nullptr);
  /// Open loop: seeded Poisson arrivals at the workload's rate for
  /// `seconds`, latency measured from each request's due time.
  PhaseResult open_loop(double seconds, SpanRecorder* spans = nullptr);

  /// Snapshot for ServerDelta: call begin_delta() before a phase and
  /// end_delta() after it.
  void begin_delta();
  ServerDelta end_delta();

  /// Correctness checks over every response kept so far: each sampled
  /// verdict against `reference`'s classify() on the same ACFG, and every
  /// hot-set repeat against the first verdict of its listing. Returns the
  /// number of mismatches; each is also reported through `report`.
  std::uint64_t check(const magic::core::MagicClassifier& reference, Report& report);

  /// The first `count` listings the workload sends (for the replay).
  std::vector<std::string> sample_listings(std::size_t count) const;
  std::vector<int> sample_labels(std::size_t count) const;

  /// Requests whose listing repeated an earlier one (hot picks after the
  /// first of each hot listing), and all picks, over the timed phases.
  std::uint64_t repeated_picks() const noexcept { return repeated_picks_; }
  std::uint64_t timed_picks() const noexcept { return timed_picks_; }

 private:
  struct Kept {
    std::uint64_t n = 0;
    std::string response;
  };

  std::string request_line(std::uint64_t n) const;
  /// Keeps a response for check(): every kCheckEvery-th request and every
  /// hot-set repeat.
  void keep(std::uint64_t n, bool hot, std::string&& response, std::vector<Kept>& sampled,
            std::vector<Kept>& hot_kept) const;
  void warm_up();
  std::string stats_reply();

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::unique_ptr<ListingSource> source_;
  std::string checkpoint_;
  std::string socket_path_;
  std::unique_ptr<magic::serve::ModelRegistry> registry_;
  std::atomic<bool> stop_{false};
  std::exception_ptr daemon_error_;
  std::uint64_t next_n_ = 0;
  std::uint64_t open_calls_ = 0;  ///< varies the arrival schedule per call
  std::vector<Kept> sampled_;
  std::vector<Kept> hot_;
  /// Warm-up verdict of each hot listing: its first (cache-miss) verdict.
  std::vector<std::string> hot_first_;
  std::uint64_t repeated_picks_ = 0;
  std::uint64_t timed_picks_ = 0;
  magic::serve::ServerStats stats_before_;
  std::string reactor_before_;
  std::thread daemon_;  // declared last: joined before the members it uses die
};

/// Socket path for one session, under the run's output directory (relative,
/// so it stays within the Unix socket path limit).
std::string socket_path(const RunOptions& options, const std::string& tag);

/// The correctness reference: the served model reloaded from its
/// checkpoint, or a model fitted with the reference seed offset.
std::unique_ptr<magic::core::MagicClassifier> reference_model(const RunOptions& options,
                                                              const ScanSession& session);

/// Adds train.{forward,backward,reduce,optimizer}_ms from the obs
/// train.epoch.* histograms (per-epoch means).
void read_train_phases(Report& report);

/// Repeats the saturated and open-loop phases with obs collection on and
/// client spans, adds the serve.*, cache.* and bench.* per-layer metrics and
/// returns the traced saturated rate.
double traced_serve(ScanSession& session, double sat_seconds, double open_seconds,
                    double untraced_rps, Report& report, SpanRecorder& spans);

/// Parses `"key":<number>` out of a flat JSON text (first occurrence at or
/// after `from`); 0 when absent.
double json_field(const std::string& text, const std::string& key, std::size_t from = 0);

}  // namespace perfbench
