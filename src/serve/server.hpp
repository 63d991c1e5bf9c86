#pragma once
// InferenceServer: the long-lived, thread-safe scoring core of magic::serve.
//
// The paper's §VII deployment story ("MAGIC would be deployed on a cloud...
// users upload suspicious files... classified on demand") needs more than a
// one-shot predict(): a resident service that owns a trained model, leases
// a replica per micro-batch (the DGCNN forward pass is stateful, see
// DgcnnModel::forward), and pushes every request through one bounded queue:
//
//   submit() --try_push--> BoundedQueue --pop--> worker micro-batcher
//                 |                                   |
//            full? reject                  flush on max_batch or
//            (backpressure)                batch_window deadline
//                                                     |
//                                          lease replica (RAII, per batch),
//                                          deadline-expired items shed, then
//                                          ONE packed forward for the rest
//                                          (per-item fallback if it throws),
//                                          PendingVerdict resolved
//
// Dynamic micro-batching: a worker that pops one request keeps collecting
// until it has `max_batch` items or `batch_window` has elapsed, then scores
// the whole batch on its replica. Under load batches fill instantly (queue
// synchronization and stats amortize across the batch); when idle a lone
// request waits at most one batch window.
//
// Shutdown: stop(drain=true) — the SIGTERM path — stops admission and lets
// workers finish every queued request; stop(drain=false) resolves queued
// requests as ShuttingDown immediately. Every PendingVerdict is resolved
// before stop() returns, so no waiter can hang.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "acfg/acfg.hpp"
#include "cache/verdict_cache.hpp"
#include "magic/classifier.hpp"
#include "magic/replica_pool.hpp"
#include "serve/stats.hpp"
#include "serve/verdict.hpp"
#include "util/bounded_queue.hpp"
#include "util/join_thread.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace magic::serve {

/// Tuning knobs of one InferenceServer.
struct ServeConfig {
  /// Worker threads == model replicas.
  std::size_t workers = 4;
  /// Bounded request queue: submissions beyond this reject immediately.
  std::size_t queue_capacity = 256;
  /// Micro-batch flush threshold (1 disables batching).
  std::size_t max_batch = 8;
  /// Micro-batch flush deadline: how long a worker waits for more requests
  /// after the first one (0 disables the wait, i.e. flush immediately).
  std::chrono::microseconds batch_window{2000};
  /// Default per-request deadline; 0 = none. A request whose deadline has
  /// passed when a worker picks it up resolves as DeadlineExpired without
  /// being scored (load shedding).
  std::chrono::milliseconds default_deadline{0};
  /// Byte budget of the content-addressed verdict cache; 0 disables it.
  /// The cache sits *ahead of* the micro-batcher and holds two kinds of
  /// key in one budget and one LRU. submit_listing() first probes the keyed
  /// hash of the decoded listing bytes, before extraction; submit() and a
  /// listing-key miss probe the ACFG content hash. A hit resolves the handle
  /// immediately, never touching the queue, a replica lease or a forward
  /// pass. Misses are scored normally and inserted under their ACFG key on
  /// Ok completion; an ACFG-key hit for a listing also stores the verdict
  /// under the listing key, so a listing's third sighting onward skips
  /// extraction.
  std::size_t cache_bytes = 0;
  /// LRU shard count of the verdict cache (ignored when cache_bytes == 0).
  std::size_t cache_shards = 8;
};

/// One decoded listing on its way into one or more servers (a
/// shadow-mirrored request visits two). The extraction runs at most once,
/// on first demand: a server whose cache answers from the listing key never
/// extracts, and a second server reuses the first one's ACFG. The listing
/// key is not shared: each server's cache keys it under its own secret.
/// Not thread-safe; `bytes` must outlive it.
class ListingRequest {
 public:
  explicit ListingRequest(std::string_view bytes) noexcept : bytes_(bytes) {}

  std::string_view bytes() const noexcept { return bytes_; }
  /// The extracted ACFG, shared by every server that scores it; null when
  /// extraction failed, with the reason in error().
  const std::shared_ptr<const acfg::Acfg>& acfg();
  const std::string& error() const noexcept { return error_; }

 private:
  std::string_view bytes_;
  bool extracted_ = false;
  std::shared_ptr<const acfg::Acfg> acfg_;
  std::string error_;
};

/// Concurrent scoring service over a fitted MagicClassifier.
class InferenceServer {
 public:
  /// Snapshots `model`'s weights (one replica per worker, cloned once) and
  /// starts the worker threads. Throws std::logic_error when `model` is not
  /// fitted. The source classifier is not referenced after construction.
  explicit InferenceServer(core::MagicClassifier& model, ServeConfig config = {});

  /// Graceful: equivalent to stop(/*drain=*/true).
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one pre-extracted ACFG. Never blocks: on a full queue or a
  /// draining server the returned handle is already resolved with
  /// RejectedQueueFull / ShuttingDown. `deadline` overrides the config
  /// default (0 = no deadline).
  PendingVerdict submit(acfg::Acfg sample,
                        std::chrono::milliseconds deadline = std::chrono::milliseconds{-1});

  /// Full-pipeline variant: with the cache on, first probes the listing key
  /// (a hit skips extraction); otherwise extracts listing -> CFG -> ACFG on
  /// the calling thread (producers parallelize extraction) and continues as
  /// submit(). Extraction failures resolve the handle with
  /// VerdictStatus::Error and are never cached.
  PendingVerdict submit_listing(std::string_view listing,
                                std::chrono::milliseconds deadline = std::chrono::milliseconds{-1});
  /// The same for a listing that may visit several servers.
  PendingVerdict submit_listing(ListingRequest& listing,
                                std::chrono::milliseconds deadline = std::chrono::milliseconds{-1});

  /// Synchronous convenience: submit + get.
  Verdict scan(acfg::Acfg sample);
  Verdict scan_listing(std::string_view listing);

  /// Consistent stats snapshot (callable from any thread, any time).
  ServerStats stats() const;

  const std::vector<std::string>& family_names() const noexcept { return family_names_; }
  const ServeConfig& config() const noexcept { return config_; }

  /// Stops the server (idempotent, callable concurrently). drain=true
  /// scores everything already queued; drain=false resolves queued requests
  /// as ShuttingDown. Either way admission stops first and all outstanding
  /// PendingVerdicts are resolved before return.
  void stop(bool drain = true) MAGIC_EXCLUDES(stop_mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Queued {
    /// Shared, not copied, when one listing is scored by two servers.
    std::shared_ptr<const acfg::Acfg> sample;
    Clock::time_point submitted_at{};
    Clock::time_point deadline{Clock::time_point::max()};
    std::shared_ptr<detail::VerdictSlot> slot;
    /// Content hash computed by submit() when the cache is on, so the
    /// completion path can insert without rehashing.
    cache::CacheKey cache_key{};
    bool cacheable = false;
  };

  /// A request admitted now (counted as submitted), with its deadline.
  Queued admit(std::chrono::milliseconds deadline);
  /// Probes the ACFG key and, on a miss, enqueues the request (or rejects
  /// it on a full or stopped queue). An ACFG-key hit is also stored under
  /// `listing_key` when the request came from a listing.
  PendingVerdict submit_sample(Queued request, const cache::CacheKey* listing_key);
  /// Resolves `request` with a cached verdict.
  void answer_from_cache(Queued& request, cache::CachedVerdict hit);
  void worker_loop(std::size_t worker_index);
  /// Stores an Ok prediction under the request's content hash (no-op when
  /// the cache is off or the request was not hashed).
  void cache_store(const Queued& request, const core::Prediction& prediction);
  /// Scores one flushed micro-batch: leases a replica for exactly this
  /// batch (RAII — released even when scoring throws), resolves expired
  /// requests, then scores the live ones in ONE fused block-diagonal
  /// forward (core::GraphBatch), falling back to per-item scoring if the
  /// packed pass throws.
  void execute_batch(std::vector<Queued>& batch);
  void process(Queued& request, core::MagicClassifier& replica);
  static double elapsed_ms(Clock::time_point since);

  ServeConfig config_;
  std::vector<std::string> family_names_;
  /// Verdict cache (null when config_.cache_bytes == 0). Owned per server:
  /// verdicts are per-model, and this server's replicas never change.
  std::unique_ptr<cache::VerdictCache> cache_;
  std::shared_ptr<core::ReplicaPool> replicas_;
  util::BoundedQueue<Queued> queue_;
  StatsCollector stats_;
  std::atomic<bool> accepting_{true};
  std::vector<util::JoinThread> workers_;
  /// stop_mutex_ only arbitrates the stop() winner; the workers themselves
  /// are stopped through queue_.close() and joined below it.
  util::Mutex stop_mutex_;
  bool stopped_ MAGIC_GUARDED_BY(stop_mutex_) = false;
};

}  // namespace magic::serve
