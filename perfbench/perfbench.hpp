#pragma once
// perfbench: the repository benchmark binary.
//
// One binary runs one workload per invocation:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Scan workloads drive a serve::ModelRegistry behind serve::run_unix_daemon
// over a Unix socket, exactly as magicd does; the training workload drives
// core::train_model. The untraced run (--trace 0) prints the end-to-end
// metrics; the traced run (--trace 1) replays every layer's public calls on
// the same generated inputs, repeats the timed phase with obs collection on
// and prints the per-layer metrics. The last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}; README.md in this directory
// explains every workload and metric.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "data/family_spec.hpp"
#include "magic/classifier.hpp"
#include "magic/dgcnn.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);
double us_between(Clock::time_point from, Clock::time_point to);

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// the sample is empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Mean of the middle half of a sample (the values between its quartiles):
/// as robust to a few outliers as the median, without its rounding to one
/// sample's value.
double interquartile_mean(std::vector<double> values);

/// user+sys CPU seconds of this process so far (getrusage).
double process_cpu_seconds();
/// Peak resident set size of this process in MiB (ru_maxrss).
double peak_rss_mb();

// ---- Result reporting ------------------------------------------------------

/// Named metrics with units, printed as human lines and as the final JSON.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  /// A line of context printed with the human-readable output only.
  void note(const std::string& line);

  /// Counts toward the result's attempted / failed fields.
  void count(std::uint64_t attempted, std::uint64_t failed);
  /// A correctness failure: printed, marks the result incorrect.
  void fail(const std::string& why);

  bool correct() const noexcept { return failures_.empty(); }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

  /// Prints notes and metrics (stderr-free: everything goes to stdout) and
  /// the final JSON line restricted to `names` (all metrics when empty).
  /// Returns false when one of `names` is missing or not finite.
  bool print(const std::vector<std::string>& names) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- Spans -----------------------------------------------------------------

/// In-memory span log: name, start, end, parent and request id. Not
/// thread-safe; each thread records into its own recorder and the recorders
/// are merged at the end of the run.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  // since the recorder's epoch
    double end_us = 0.0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
  };

  explicit SpanRecorder(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  std::size_t begin(std::string_view name, std::uint64_t request, std::int64_t parent = -1);
  void end(std::size_t id);
  /// Records an already-finished span.
  void record(std::string_view name, Clock::time_point start, Clock::time_point end,
              std::uint64_t request, std::int64_t parent = -1);

  /// Appends `other`'s spans (parents re-based).
  void merge(const SpanRecorder& other);

  /// Self time per span name in microseconds: duration minus the part of
  /// the interval covered by direct children.
  std::map<std::string, double> self_time_us() const;
  /// Number of spans per name.
  std::map<std::string, std::size_t> counts() const;

  /// Writes one JSON object per span.
  void write_jsonl(const std::string& path) const;

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII child span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string_view name, std::uint64_t request,
             std::int64_t parent = -1)
      : recorder_(recorder), id_(recorder.begin(name, request, parent)) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const noexcept { return static_cast<std::int64_t>(id_); }

 private:
  SpanRecorder& recorder_;
  std::size_t id_;
};

// ---- Workloads -------------------------------------------------------------

/// Every fixed constant of one workload (README.md lists them).
struct WorkloadSpec {
  std::string name;
  bool scan = true;                 ///< false: the training workload
  magic::core::DgcnnConfig config;  ///< model served or trained
  bool mskcfg_families = false;     ///< family profiles: MSKCFG or YANCFG
  double functions_factor = 1.0;    ///< FamilySpec::functions_mean multiplier
  double dup_share = 0.0;           ///< share of requests drawn from the hot set
  std::size_t hot_set = 0;          ///< hot-set size (dup workloads)
  double open_rate = 0.0;           ///< open-loop arrival rate, requests/s
  std::size_t bases = 0;            ///< base listings generated per run
  // Training workload only.
  std::size_t train_per_family = 0;
  std::size_t train_epochs = 0;
};

/// The registered workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Fixed load shape shared by all workloads (recorded in README.md).
struct LoadShape {
  static constexpr std::size_t kInferenceWorkers = 1;
  static constexpr std::size_t kIoWorkers = 1;
  static constexpr std::size_t kConnections = 3;
  static constexpr std::size_t kWindow = 16;  ///< saturated pipelining depth
  static constexpr std::size_t kTrainThreads = 4;
  static constexpr std::size_t kCheckEvery = 16;  ///< reference-check stride
  static constexpr std::uint64_t kModelSeed = 2019;
  /// Set-ups per untraced run; setup_s is their median.
  static constexpr std::size_t kSetups = 3;
};

/// Seeded request listings: a pool of base listings plus a one-block stub
/// appended per request, whose instruction mix encodes the request's
/// variant number, so every variant has a distinct ACFG. Base listings are
/// padded to a multiple of three bytes so a request's base64 payload is the
/// precomputed base encoding followed by the stub's.
class ListingSource {
 public:
  /// Generates spec.bases base listings from `seed`.
  ListingSource(const WorkloadSpec& spec, std::uint64_t seed);

  std::size_t bases() const noexcept { return base_b64_.size(); }
  /// Variant 0 of base b is the hot listing b; unique requests use 1+.
  std::string listing(std::size_t base, std::size_t variant) const;
  /// The base64 payload of listing(base, variant).
  std::string payload_b64(std::size_t base, std::size_t variant) const;
  int family(std::size_t base) const { return base_family_[base]; }

  /// The listing request `n` of the workload sends: a hot listing with
  /// probability dup_share, otherwise a never-repeated unique variant.
  struct Pick {
    std::size_t base = 0;
    std::size_t variant = 0;
    bool hot = false;
  };
  Pick pick(std::uint64_t n) const;

 private:
  static std::string stub(std::uint64_t first_address, std::size_t variant);

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::vector<std::string> base_b64_;
  std::vector<std::uint64_t> stub_address_;
  std::vector<int> base_family_;
};

/// The request id "<tag><n>" and the wire line "<tag><n> b64 <payload>".
std::string request_id(char tag, std::uint64_t n);
std::string scan_line(char tag, std::uint64_t n, std::string_view payload_b64);

/// Family profiles of the workload, size factor applied.
std::vector<magic::data::FamilySpec> family_specs(const WorkloadSpec& spec);

/// Fits the workload's served model on a fixed-seed corpus (the part of
/// set-up that does not depend on --seed).
std::unique_ptr<magic::core::MagicClassifier> fit_scan_model(const WorkloadSpec& spec,
                                                             std::uint64_t seed);

// ---- Runs ------------------------------------------------------------------

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Nonzero: the correctness reference is a model fitted with this seed
  /// offset instead of the served one (the checks must then fail).
  std::uint64_t reference_seed_offset = 0;
  std::string out_dir = ".bench_build/perfbench-out";
  /// Source revision stamp (git commit or source digest), from run.py.
  std::string commit = "unknown";
};

void run_scan(const RunOptions& options, Report& report);
void run_train(const RunOptions& options, Report& report);

/// Per-layer replay of the workload's inputs through each module's public
/// calls, single thread (traced runs only).
struct ReplayInputs {
  std::vector<std::string> listings;  ///< the workload's own request listings
  std::vector<int> labels;            ///< family of each listing
  std::string checkpoint;             ///< the served model (MagicClassifier::save)
};
/// Listings the replay takes from a workload.
constexpr std::size_t kReplayListings = 64;
void run_replay(const RunOptions& options, const ReplayInputs& inputs, Report& report,
                SpanRecorder& spans);

/// Host and build stamp lines (nproc, SIMD level, CPU, build, commit, seed).
void stamp_host(const RunOptions& options, Report& report);

/// Paper §V-E per-instance costs printed beside the replay's numbers.
void paper_reference_rows(Report& report);

}  // namespace perfbench
