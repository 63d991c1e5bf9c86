#include "scan_session.hpp"

#include <cmath>
#include <cstdio>
#include <deque>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "acfg/extractor.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "serve/wire.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace magic;

namespace {

constexpr double kProbabilityPin = 1e-9;  // packed vs per-sample (tests pin 1e-9)
// The wire prints probabilities with six significant digits, which adds at
// most half a unit in the sixth digit of relative error.
constexpr double kWirePrintError = 5e-6;

enum class Status { Ok, Refused, Expired, Error };

Status response_status(const std::string& line) {
  const std::string key = "\"status\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return Status::Error;
  const std::string_view status = std::string_view(line).substr(at + key.size());
  if (status.rfind("ok\"", 0) == 0) return Status::Ok;
  if (status.rfind("rejected", 0) == 0 || status.rfind("shutting", 0) == 0) {
    return Status::Refused;
  }
  if (status.rfind("deadline", 0) == 0) return Status::Expired;
  return Status::Error;
}

struct ParsedVerdict {
  bool ok = false;
  std::size_t family = 0;
  std::vector<double> probabilities;
};

ParsedVerdict parse_verdict(const std::string& line) {
  ParsedVerdict v;
  v.ok = response_status(line) == Status::Ok;
  if (!v.ok) return v;
  v.family = static_cast<std::size_t>(json_field(line, "family_index"));
  const std::string key = "\"probabilities\":[";
  std::size_t at = line.find(key);
  if (at == std::string::npos) {
    v.ok = false;
    return v;
  }
  const char* p = line.c_str() + at + key.size();
  while (*p && *p != ']') {
    char* end = nullptr;
    v.probabilities.push_back(std::strtod(p, &end));
    if (end == p) break;
    p = end;
    if (*p == ',') ++p;
  }
  return v;
}

bool close_enough(double wire, double reference) {
  return std::abs(wire - reference) <=
         kProbabilityPin * std::max(1.0, std::abs(reference)) +
             kWirePrintError * std::abs(reference);
}

/// Empty when `a` matches `b` (family and every probability); otherwise a
/// description of the first difference.
std::string compare_verdicts(const ParsedVerdict& a, std::size_t b_family,
                             const std::vector<double>& b_probs) {
  if (!a.ok) return "verdict not ok";
  if (a.family != b_family) {
    return "family " + std::to_string(a.family) + " vs " + std::to_string(b_family);
  }
  if (a.probabilities.size() != b_probs.size()) return "probability count differs";
  for (std::size_t c = 0; c < b_probs.size(); ++c) {
    if (!close_enough(a.probabilities[c], b_probs[c])) {
      std::ostringstream os;
      os.precision(12);
      os << "probability[" << c << "] " << a.probabilities[c] << " vs " << b_probs[c];
      return os.str();
    }
  }
  return {};
}

}  // namespace

void PhaseResult::append(const PhaseResult& other) {
  attempted += other.attempted;
  refused += other.refused;
  expired += other.expired;
  errors += other.errors;
  seconds += other.seconds;
  hot_picks += other.hot_picks;
  ok_in_window += other.ok_in_window;
  auto extend = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  extend(slice_rate, other.slice_rate);
  extend(slice_cpu_ms, other.slice_cpu_ms);
  extend(latency_ms, other.latency_ms);
  extend(lag_ms, other.lag_ms);
}

double PhaseResult::sliced_latency_ms(double q) const {
  const std::size_t slices = std::max<std::size_t>(1, latency_ms.size() / kLatencySlice);
  std::vector<double> per_slice;
  for (std::size_t k = 0; k < slices; ++k) {
    const auto first = latency_ms.begin() + static_cast<std::ptrdiff_t>(
                                                k * latency_ms.size() / slices);
    const auto last = latency_ms.begin() + static_cast<std::ptrdiff_t>(
                                               (k + 1) * latency_ms.size() / slices);
    per_slice.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(per_slice);
}

double json_field(const std::string& text, const std::string& key, std::size_t from) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

ScanSession::ScanSession(const WorkloadSpec& spec, std::uint64_t seed,
                         const std::string& socket_path)
    : spec_(spec), seed_(seed), socket_path_(socket_path) {
  source_ = std::make_unique<ListingSource>(spec, seed);
  std::unique_ptr<core::MagicClassifier> model = fit_scan_model(spec, LoadShape::kModelSeed);
  std::ostringstream checkpoint;
  model->save(checkpoint);
  checkpoint_ = checkpoint.str();

  // magicd's production defaults (batching, packed engine, 64 MiB verdict
  // cache) with the benchmark's fixed worker split.
  serve::ServeConfig config;
  config.workers = LoadShape::kInferenceWorkers;
  config.cache_bytes = 64ull << 20;
  registry_ = std::make_unique<serve::ModelRegistry>("v1", std::move(model), config);

  daemon_ = std::thread([this] {
    serve::DaemonOptions options;
    options.socket_path = socket_path_;
    options.handle_signals = false;
    options.external_stop = &stop_;
    options.io_workers = LoadShape::kIoWorkers;
    try {
      serve::run_unix_daemon(*registry_, options);
    } catch (...) {
      daemon_error_ = std::current_exception();
    }
  });
  try {
    const auto give_up = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      try {
        serve::wire::UnixClient probe(socket_path_);
        break;
      } catch (const std::runtime_error&) {
        if (Clock::now() > give_up) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    hot_first_.resize(spec_.hot_set);
    warm_up();
  } catch (...) {
    stop_.store(true);
    daemon_.join();
    if (daemon_error_) std::rethrow_exception(daemon_error_);  // the root cause
    throw;
  }
}

ScanSession::~ScanSession() {
  stop_.store(true);
  if (daemon_.joinable()) daemon_.join();
  if (daemon_error_) {
    try {
      std::rethrow_exception(daemon_error_);
    } catch (const std::exception& e) {
      std::fprintf(stdout, "perfbench: daemon failed: %s\n", e.what());
    } catch (...) {
      std::fprintf(stdout, "perfbench: daemon failed\n");
    }
  }
  registry_.reset();
  std::remove(socket_path_.c_str());
}

std::string ScanSession::request_line(std::uint64_t n) const {
  const ListingSource::Pick pick = source_->pick(n);
  return scan_line('n', n, source_->payload_b64(pick.base, pick.variant));
}

void ScanSession::warm_up() {
  // Hot listings first (their verdicts are the first misses every later
  // cache hit must equal), then a few windows of ordinary requests so the
  // replicas, the cache shards and the reactor have run before timing.
  std::vector<std::string> lines;
  for (std::size_t h = 0; h < spec_.hot_set; ++h) {
    lines.push_back(scan_line('h', h, source_->payload_b64(h, 0)));
  }
  const std::size_t ordinary = 2 * LoadShape::kWindow * LoadShape::kConnections;
  for (std::size_t i = 0; i < ordinary; ++i) lines.push_back(request_line(next_n_++));

  serve::wire::UnixClient client(socket_path_);
  std::size_t sent = 0;
  std::string response;
  for (std::size_t received = 0; received < lines.size(); ++received) {
    while (sent < lines.size() && sent < received + LoadShape::kWindow) {
      client.send_line(lines[sent++]);
    }
    if (!client.recv_line(response) || response_status(response) != Status::Ok) {
      throw std::runtime_error("perfbench: warm-up request failed: " + response);
    }
    if (received < spec_.hot_set) hot_first_[received] = response;
  }
}

void ScanSession::keep(std::uint64_t n, bool hot, std::string&& response,
                       std::vector<Kept>& sampled, std::vector<Kept>& hot_kept) const {
  if (n % LoadShape::kCheckEvery == 0) {
    sampled.push_back(Kept{n, response});
  }
  if (hot) hot_kept.push_back(Kept{n, std::move(response)});
}

namespace {

void count_status(Status status, PhaseResult& result) {
  switch (status) {
    case Status::Ok: break;
    case Status::Refused: ++result.refused; break;
    case Status::Expired: ++result.expired; break;
    case Status::Error: ++result.errors; break;
  }
}

}  // namespace

PhaseResult ScanSession::saturated(double seconds, SpanRecorder* spans) {
  const std::size_t connections = LoadShape::kConnections;
  std::vector<std::unique_ptr<serve::wire::UnixClient>> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<serve::wire::UnixClient>(socket_path_));
  }
  std::atomic<std::uint64_t> next{next_n_};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const std::chrono::duration<double> slice_length(seconds / PhaseResult::kSlices);

  struct Local {
    PhaseResult result;
    std::vector<double> slice_ok;  // ok verdicts per slice
    std::vector<Kept> sampled;
    std::vector<Kept> hot;
    SpanRecorder spans;
  };
  std::vector<Local> locals(connections);
  for (Local& local : locals) local.slice_ok.assign(PhaseResult::kSlices, 0.0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Local& local = locals[c];
      serve::wire::UnixClient& client = *clients[c];
      std::deque<std::pair<std::uint64_t, Clock::time_point>> inflight;
      auto send_next = [&] {
        const std::uint64_t n = next.fetch_add(1);
        const std::string line = request_line(n);
        inflight.emplace_back(n, Clock::now());
        ++local.result.attempted;
        client.send_line(line);
      };
      std::this_thread::sleep_until(start);
      std::string line;
      try {
        for (std::size_t w = 0; w < LoadShape::kWindow; ++w) send_next();
        while (!inflight.empty()) {
          if (!client.recv_line(line)) break;
          const auto [n, sent] = inflight.front();
          inflight.pop_front();
          const Clock::time_point now = Clock::now();
          const Status status = response_status(line);
          count_status(status, local.result);
          if (status == Status::Ok && now >= start && now < deadline) {
            ++local.result.ok_in_window;
            const auto slice = static_cast<std::size_t>(
                std::chrono::duration<double>(now - start) / slice_length);
            local.slice_ok[std::min(slice, PhaseResult::kSlices - 1)] += 1.0;
          }
          if (spans) local.spans.record("bench.request", sent, now, n);
          const bool hot = source_->pick(n).hot;
          if (hot) ++local.result.hot_picks;
          keep(n, hot, std::move(line), local.sampled, local.hot);
          if (now < deadline) send_next();
        }
      } catch (const std::exception& e) {
        std::fprintf(stdout, "perfbench: connection %zu failed: %s\n", c, e.what());
      }
      local.result.errors += inflight.size();  // lost responses
    });
  }
  std::vector<double> slice_cpu(PhaseResult::kSlices, 0.0);
  std::this_thread::sleep_until(start);
  double cpu_mark = process_cpu_seconds();
  for (std::size_t k = 0; k < PhaseResult::kSlices; ++k) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(slice_length * (k + 1)));
    const double cpu_now = process_cpu_seconds();
    slice_cpu[k] = cpu_now - cpu_mark;
    cpu_mark = cpu_now;
  }
  for (std::thread& t : threads) t.join();
  next_n_ = next.load();

  PhaseResult total;
  std::vector<double> slice_ok(PhaseResult::kSlices, 0.0);
  for (Local& local : locals) {
    total.append(local.result);
    for (std::size_t k = 0; k < PhaseResult::kSlices; ++k) slice_ok[k] += local.slice_ok[k];
    for (Kept& k : local.sampled) sampled_.push_back(std::move(k));
    for (Kept& k : local.hot) hot_.push_back(std::move(k));
    if (spans) spans->merge(local.spans);
  }
  total.seconds = seconds;
  for (std::size_t k = 0; k < PhaseResult::kSlices; ++k) {
    total.slice_rate.push_back(slice_ok[k] / slice_length.count());
    if (slice_ok[k] > 0) total.slice_cpu_ms.push_back(slice_cpu[k] * 1e3 / slice_ok[k]);
  }
  timed_picks_ += total.attempted;
  repeated_picks_ += total.hot_picks;
  return total;
}

PhaseResult ScanSession::open_loop(double seconds, SpanRecorder* spans) {
  const std::size_t connections = LoadShape::kConnections;
  // Seeded Poisson schedule: exponential gaps at the workload's rate.
  util::Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + 0x6F70656EULL + open_calls_++);
  std::vector<double> offsets;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / spec_.open_rate;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  const std::uint64_t first_n = next_n_;
  next_n_ += offsets.size();

  std::vector<std::unique_ptr<serve::wire::UnixClient>> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<serve::wire::UnixClient>(socket_path_));
  }
  struct Pending {
    std::uint64_t n;
    Clock::time_point due;
  };
  struct Lane {
    std::mutex mutex;
    std::deque<Pending> pending;
    std::size_t expected = 0;
    PhaseResult result;
    std::vector<Kept> sampled;
    std::vector<Kept> hot;
    SpanRecorder spans;
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  std::vector<Lane> lanes(connections);
  for (std::size_t i = 0; i < offsets.size(); ++i) ++lanes[i % connections].expected;
  // Indexed by schedule position, so slices of it are slices of time. A
  // request without an ok verdict keeps the penalty: it missed any limit.
  std::vector<double> latency(offsets.size(), seconds * 1e3);

  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < connections; ++c) {
    receivers.emplace_back([&, c] {
      Lane& lane = lanes[c];
      std::string line;
      std::size_t received = 0;
      try {
        for (; received < lane.expected; ++received) {
          if (!clients[c]->recv_line(line)) break;
          const Clock::time_point now = Clock::now();
          Pending p;
          {
            std::lock_guard<std::mutex> lock(lane.mutex);
            p = lane.pending.front();
            lane.pending.pop_front();
          }
          const Status status = response_status(line);
          count_status(status, lane.result);
          if (status == Status::Ok) latency[p.n - first_n] = ms_between(p.due, now);
          if (spans) lane.spans.record("bench.request", p.due, now, p.n);
          const bool hot = source_->pick(p.n).hot;
          if (hot) ++lane.result.hot_picks;
          keep(p.n, hot, std::move(line), lane.sampled, lane.hot);
        }
      } catch (const std::exception& e) {
        std::fprintf(stdout, "perfbench: open-loop lane %zu failed: %s\n", c, e.what());
      }
      lane.result.errors += lane.expected - received;  // lost responses
    });
  }

  PhaseResult total;
  total.seconds = seconds;
  std::string line = offsets.empty() ? std::string() : request_line(first_n);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offsets[i]));
    std::this_thread::sleep_until(due);
    const Clock::time_point send_at = Clock::now();
    total.lag_ms.push_back(std::max(0.0, ms_between(due, send_at)));
    Lane& lane = lanes[i % connections];
    {
      std::lock_guard<std::mutex> lock(lane.mutex);
      lane.pending.push_back(Pending{first_n + i, due});
    }
    ++total.attempted;
    try {
      clients[i % connections]->send_line(line);
    } catch (const std::exception& e) {
      std::fprintf(stdout, "perfbench: open-loop send failed: %s\n", e.what());
      clients[i % connections]->finish_sending();
    }
    // Build the next line while waiting for its due time.
    if (i + 1 < offsets.size()) line = request_line(first_n + i + 1);
  }
  for (std::thread& t : receivers) t.join();
  total.latency_ms = std::move(latency);
  for (Lane& lane : lanes) {
    lane.result.attempted = 0;  // counted by the sender
    total.append(lane.result);
    for (Kept& k : lane.sampled) sampled_.push_back(std::move(k));
    for (Kept& k : lane.hot) hot_.push_back(std::move(k));
    if (spans) spans->merge(lane.spans);
  }
  timed_picks_ += total.attempted;
  repeated_picks_ += total.hot_picks;
  return total;
}

std::string ScanSession::stats_reply() {
  serve::wire::UnixClient client(socket_path_);
  client.send_line("stats");
  std::string line;
  if (!client.recv_line(line)) throw std::runtime_error("perfbench: no stats reply");
  return line;
}

void ScanSession::begin_delta() {
  stats_before_ = registry_->default_server_stats();
  reactor_before_ = stats_reply();
  obs::MetricsRegistry::global().histogram("serve.latency_ms").reset();
}

ServerDelta ScanSession::end_delta() {
  const serve::ServerStats after = registry_->default_server_stats();
  const std::string reactor_after = stats_reply();
  const serve::ServerStats& before = stats_before_;
  ServerDelta d;
  d.batches = after.batches - before.batches;
  d.packed_batches = after.packed_batches - before.packed_batches;
  d.rejected = (after.rejected_full + after.rejected_shutdown) -
               (before.rejected_full + before.rejected_shutdown);
  for (std::size_t s = 0; s < after.batch_size_counts.size(); ++s) {
    const std::uint64_t prior =
        s < before.batch_size_counts.size() ? before.batch_size_counts[s] : 0;
    d.batched_items += static_cast<double>(s) *
                       static_cast<double>(after.batch_size_counts[s] - prior);
  }
  d.cache_hits = after.cache.hits - before.cache.hits;
  d.cache_misses = after.cache.misses - before.cache.misses;
  auto reactor = [](const std::string& reply, const char* key) {
    const std::size_t block = reply.find("\"reactor\":");
    return block == std::string::npos ? 0.0 : json_field(reply, key, block);
  };
  auto delta = [&](const char* key) {
    return static_cast<std::uint64_t>(reactor(reactor_after, key) -
                                      reactor(reactor_before_, key));
  };
  d.read_pauses = delta("read_pauses");
  d.wakeups = delta("wakeups");
  d.reactor_requests = delta("requests");
  const util::Histogram latency =
      obs::MetricsRegistry::global().histogram("serve.latency_ms").snapshot();
  d.server_lat_p50_ms = latency.count() == 0 ? 0.0 : latency.quantile(0.5);
  return d;
}

std::uint64_t ScanSession::check(const core::MagicClassifier& reference, Report& report) {
  std::uint64_t mismatches = 0;
  auto mismatch = [&](const std::string& what) {
    if (++mismatches <= 3) report.fail(what);
  };

  // Sampled verdicts against classify() on the same ACFG.
  std::vector<acfg::Acfg> samples;
  std::vector<const Kept*> kept;
  for (const Kept& k : sampled_) {
    if (response_status(k.response) != Status::Ok) continue;  // already counted as failed
    const ListingSource::Pick pick = source_->pick(k.n);
    samples.push_back(acfg::extract_acfg_from_listing(source_->listing(pick.base, pick.variant)));
    kept.push_back(&k);
  }
  core::PredictOptions options;
  options.threads = LoadShape::kTrainThreads;
  options.engine = core::PredictEngine::PerSample;
  const std::vector<core::Prediction> expected = reference.classify(samples, options);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::string diff = compare_verdicts(parse_verdict(kept[i]->response),
                                              expected[i].family_index,
                                              expected[i].probabilities);
    if (!diff.empty()) {
      mismatch("request n" + std::to_string(kept[i]->n) +
               " differs from classify(): " + diff);
    }
  }

  // Every repeat of a hot listing against the first (miss) verdict.
  std::uint64_t hot_checked = 0;
  for (const Kept& k : hot_) {
    if (response_status(k.response) != Status::Ok) continue;
    const ParsedVerdict first = parse_verdict(hot_first_[source_->pick(k.n).base]);
    const std::string diff =
        compare_verdicts(parse_verdict(k.response), first.family, first.probabilities);
    ++hot_checked;
    if (!diff.empty()) {
      mismatch("hot request n" + std::to_string(k.n) + " differs from its first verdict: " +
               diff);
    }
  }
  if (mismatches > 3) {
    report.fail(std::to_string(mismatches) + " verdict mismatches in total");
  }
  std::ostringstream os;
  os << "checks: " << expected.size() << " sampled verdicts vs classify() (every "
     << LoadShape::kCheckEvery << "th request), " << hot_checked
     << " hot repeats vs first verdict, " << mismatches << " mismatches";
  report.note(os.str());
  sampled_.clear();
  hot_.clear();
  return mismatches;
}

std::vector<std::string> ScanSession::sample_listings(std::size_t count) const {
  std::vector<std::string> out;
  for (std::uint64_t n = 0; n < count; ++n) {
    const ListingSource::Pick pick = source_->pick(n);
    out.push_back(source_->listing(pick.base, pick.variant));
  }
  return out;
}

std::vector<int> ScanSession::sample_labels(std::size_t count) const {
  std::vector<int> out;
  for (std::uint64_t n = 0; n < count; ++n) out.push_back(source_->family(source_->pick(n).base));
  return out;
}

}  // namespace perfbench
