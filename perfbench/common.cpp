// Shared plumbing of perfbench: statistics, the result report, the span
// log, the workload table, the seeded listing source and the host stamp.

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "data/corpus.hpp"
#include "data/program_generator.hpp"
#include "perfbench.hpp"
#include "serve/wire.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace magic;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- Report ------------------------------------------------------------------

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Entry{value, unit};
}

double Report::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? std::nan("") : it->second.value;
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::fail(const std::string& why) {
  failures_.push_back(why);
  std::cout << "CHECK FAILED: " << why << "\n";
}

namespace {

std::string json_number(double value) {
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

}  // namespace

bool Report::print(const std::vector<std::string>& names) const {
  for (const std::string& line : notes_) std::cout << line << "\n";
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::cout << "metric " << std::left << std::setw(34) << name << std::right
              << std::setw(16) << std::setprecision(6) << e.value << " " << e.unit
              << "\n";
  }
  const std::vector<std::string>& wanted = names.empty() ? order_ : names;
  bool complete = true;
  std::ostringstream metrics;
  metrics << "{";
  bool first = true;
  for (const std::string& name : wanted) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end() || !std::isfinite(it->second.value) ||
        it->second.unit.empty()) {
      std::cout << "MISSING METRIC: " << name << "\n";
      complete = false;
      continue;
    }
    if (!first) metrics << ", ";
    first = false;
    metrics << "\"" << name << "\": {\"value\": " << json_number(it->second.value)
            << ", \"unit\": \"" << it->second.unit << "\"}";
  }
  metrics << "}";
  const bool ok = correct() && complete;
  std::cout << "{\"correct\": " << (ok ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
            << ", \"failed\": " << failed_ << ", \"metrics\": " << metrics.str() << "}"
            << std::endl;
  return complete;
}

// ---- Spans -------------------------------------------------------------------

std::size_t SpanRecorder::begin(std::string_view name, std::uint64_t request,
                                std::int64_t parent) {
  Span span;
  span.name = std::string(name);
  span.start_us = us_between(epoch_, Clock::now());
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t id) { spans_[id].end_us = us_between(epoch_, Clock::now()); }

void SpanRecorder::record(std::string_view name, Clock::time_point start,
                          Clock::time_point end, std::uint64_t request,
                          std::int64_t parent) {
  Span span;
  span.name = std::string(name);
  span.start_us = us_between(epoch_, start);
  span.end_us = us_between(epoch_, end);
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
}

void SpanRecorder::merge(const SpanRecorder& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  const double shift = us_between(epoch_, other.epoch_);
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    span.start_us += shift;
    span.end_us += shift;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, double> SpanRecorder::self_time_us() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      // Children of one parent are recorded sequentially on one thread, so
      // their intervals do not overlap and their durations add up.
      child_cover[static_cast<std::size_t>(span.parent)] += span.end_us - span.start_us;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end_us - spans_[i].start_us;
    self[spans_[i].name] += std::max(0.0, duration - child_cover[i]);
  }
  return self;
}

std::map<std::string, std::size_t> SpanRecorder::counts() const {
  std::map<std::string, std::size_t> out;
  for (const Span& span : spans_) ++out[span.name];
  return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_us\":"
        << json_number(s.start_us) << ",\"end_us\":" << json_number(s.end_us)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
}

// ---- Workloads -------------------------------------------------------------------

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = [] {
    std::vector<WorkloadSpec> out;

    // Table II "Best Model for YANCFG": AMP, ratio 0.2, gc=(32,32,32,32),
    // 16 Conv2D channels, dropout 0.5.
    WorkloadSpec amp;
    amp.name = "scan_amp_unique";
    amp.config.pooling = core::PoolingType::AdaptivePooling;
    amp.config.pooling_ratio = 0.2;
    amp.config.graph_conv_channels = {32, 32, 32, 32};
    amp.config.conv2d_channels = 16;
    amp.config.dropout_rate = 0.5;
    amp.open_rate = 200.0;
    amp.bases = 1024;
    out.push_back(amp);

    // The SortPooling -> Conv1D head of the packed-engine comparison, on
    // 4x-size listings, half of them repeats from a small hot set.
    WorkloadSpec sort;
    sort.name = "scan_sortpool_dup";
    sort.config.pooling = core::PoolingType::SortPooling;
    sort.config.remaining = core::RemainingLayer::Conv1D;
    sort.config.pooling_ratio = 0.6;
    sort.config.graph_conv_channels = {32, 32};
    sort.config.dropout_rate = 0.5;
    sort.functions_factor = 4.0;
    sort.dup_share = 0.5;
    sort.hot_set = 128;
    sort.open_rate = 75.0;
    sort.bases = 512;
    out.push_back(sort);

    // Table II "Best Model for MSKCFG": AMP, ratio 0.64, gc=(128,64,32,32),
    // 16 Conv2D channels, dropout 0.1.
    WorkloadSpec train;
    train.name = "train_amp_mskcfg";
    train.scan = false;
    train.config.pooling = core::PoolingType::AdaptivePooling;
    train.config.pooling_ratio = 0.64;
    train.config.graph_conv_channels = {128, 64, 32, 32};
    train.config.conv2d_channels = 16;
    train.config.dropout_rate = 0.1;
    train.mskcfg_families = true;
    train.open_rate = 75.0;  // traced serve phase only
    train.bases = 256;
    train.train_per_family = 10;
    train.train_epochs = 2;
    out.push_back(train);
    return out;
  }();
  return table;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string request_id(char tag, std::uint64_t n) {
  std::string id(1, tag);
  id += std::to_string(n);
  return id;
}

std::string scan_line(char tag, std::uint64_t n, std::string_view payload_b64) {
  std::string line = request_id(tag, n);
  line.reserve(line.size() + 5 + payload_b64.size());
  line += " b64 ";
  line += payload_b64;
  return line;
}

std::vector<data::FamilySpec> family_specs(const WorkloadSpec& spec) {
  std::vector<data::FamilySpec> specs =
      spec.mskcfg_families ? data::mskcfg_family_specs() : data::yancfg_family_specs();
  for (data::FamilySpec& s : specs) s.functions_mean *= spec.functions_factor;
  return specs;
}

std::unique_ptr<core::MagicClassifier> fit_scan_model(const WorkloadSpec& spec,
                                                      std::uint64_t seed) {
  util::ThreadPool pool(LoadShape::kTrainThreads);
  // A vanishing scale gives every family exactly min_per_family samples.
  const data::Dataset corpus =
      data::generate_corpus(family_specs(spec), 1e-9, seed, pool, /*min_per_family=*/6);
  core::TrainOptions train;
  train.epochs = 2;
  train.batch_size = 10;
  train.learning_rate = 3e-3;
  train.weight_decay = 1e-4;
  train.threads = LoadShape::kTrainThreads;
  train.seed = seed;
  auto model = std::make_unique<core::MagicClassifier>(spec.config, train, seed);
  model->fit(corpus, 0.0);
  return model;
}

// ---- ListingSource -------------------------------------------------------------

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Address of the last instruction line of a listing (lines start with a
/// hexadecimal address).
std::uint64_t last_address(const std::string& text) {
  std::uint64_t last = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == ';') continue;
    std::uint64_t value = 0;
    if (std::sscanf(line.c_str(), "%lx", &value) == 1) last = std::max(last, value);
  }
  return last;
}

constexpr std::size_t kStubDigits = 4;
constexpr std::size_t kStubBase = 6;
constexpr std::size_t kStubVariants = 6 * 6 * 6 * 6;

}  // namespace

ListingSource::ListingSource(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  const std::size_t bases = spec.bases;
  const std::vector<data::FamilySpec> specs = family_specs(spec);
  const std::size_t families = specs.size();
  base_b64_.resize(bases);
  stub_address_.resize(bases);
  base_family_.resize(bases);
  // One generator per family, each a deterministic stream from the seed;
  // bases are dealt round-robin over the families.
  util::ThreadPool pool(LoadShape::kTrainThreads);
  pool.parallel_for(families, [&](std::size_t f) {
    data::ProgramGenerator generator(specs[f], util::Rng(splitmix(seed * 131 + f)));
    for (std::size_t b = f; b < bases; b += families) {
      std::string text = generator.generate_listing();
      if (text.empty() || text.back() != '\n') text.push_back('\n');
      stub_address_[b] = last_address(text) + 0x40;
      while (text.size() % 3 != 0) text.push_back('\n');
      base_b64_[b] = serve::wire::base64_encode(text);
      base_family_[b] = static_cast<int>(f);
    }
  });
}

std::string ListingSource::stub(std::uint64_t address, std::size_t variant) {
  // Digits of the variant number, base 6, give the counts of four
  // instruction kinds that land in distinct Table I channels: add-immediate
  // (arithmetic + numeric constant), inc (arithmetic), mov (mov), cmp
  // (compare). Distinct variants therefore give distinct block attributes.
  static const char* const kinds[kStubDigits] = {"add eax, 7", "inc eax", "mov eax, ebx",
                                                 "cmp eax, ebx"};
  std::ostringstream os;
  os << std::hex;
  auto emit = [&](const char* text) {
    os << address << ' ' << text << '\n';
    address += 4;
  };
  emit("push ebp");
  std::size_t rest = variant;
  for (std::size_t k = 0; k < kStubDigits; ++k) {
    const std::size_t count = rest % kStubBase;
    rest /= kStubBase;
    for (std::size_t i = 0; i < count; ++i) emit(kinds[k]);
  }
  emit("ret");
  return os.str();
}

std::string ListingSource::listing(std::size_t base, std::size_t variant) const {
  if (variant >= kStubVariants) {
    throw std::runtime_error("perfbench: listing variants exhausted");
  }
  return serve::wire::base64_decode(base_b64_[base]) + stub(stub_address_[base], variant);
}

std::string ListingSource::payload_b64(std::size_t base, std::size_t variant) const {
  if (variant >= kStubVariants) {
    throw std::runtime_error("perfbench: listing variants exhausted");
  }
  return base_b64_[base] + serve::wire::base64_encode(stub(stub_address_[base], variant));
}

ListingSource::Pick ListingSource::pick(std::uint64_t n) const {
  Pick p;
  const std::uint64_t draw = splitmix(seed_ ^ (n * 0x2545F4914F6CDD1DULL));
  const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
  if (spec_.dup_share > 0.0 && u < spec_.dup_share) {
    p.hot = true;
    p.base = static_cast<std::size_t>(splitmix(draw) % spec_.hot_set);
    p.variant = 0;
  } else {
    p.base = static_cast<std::size_t>(n % bases());
    p.variant = 1 + static_cast<std::size_t>(n / bases());
  }
  return p;
}

// ---- Host stamp and paper rows -------------------------------------------------

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2],
                  &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string out(brand);
    const auto first = out.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : out.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

void stamp_host(const RunOptions& options, Report& report) {
  std::ostringstream os;
  os << "host: nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN)
     << " hardware_concurrency=" << std::thread::hardware_concurrency()
     << " simd=" << tensor::simd::level_name(tensor::simd::active_level())
     << " cpu=\"" << cpu_model() << "\"";
  report.note(os.str());
  std::ostringstream build;
  build << "build: type=" << MAGIC_PERFBENCH_BUILD_TYPE << " MAGIC_CHECKED_BUILD="
#ifdef MAGIC_CHECKED_BUILD
        << "ON"
#else
        << "OFF"
#endif
        << " commit=" << options.commit << " workload=" << options.spec->name
        << " seed=" << options.seed << " seconds=" << options.seconds
        << " trace=" << (options.trace ? 1 : 0);
  report.note(build.str());
}

void paper_reference_rows(Report& report) {
  // §V-E per-instance costs, on the paper's hardware and data: context for
  // the replay's numbers, not targets.
  auto row = [&](const char* what, double paper, const char* metric, const char* unit) {
    std::ostringstream os;
    os << "paper §V-E (different hardware and data; context only): " << what << " "
       << paper << " " << unit << "  | here " << metric << " = " << report.get(metric)
       << " " << unit;
    report.note(os.str());
  };
  row("ACFG extraction", 5800.0, "acfg.extract_ms", "ms");
  row("train per instance", 29.69, "magic.train_step_ms", "ms");
  row("predict per instance", 11.33, "magic.forward_b1_ms", "ms");
}

}  // namespace perfbench
