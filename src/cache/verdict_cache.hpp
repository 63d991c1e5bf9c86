#pragma once
// Content-addressed verdict/embedding cache (the serve-side answer to
// duplicated scan traffic).
//
// VerdictCache maps a 128-bit content key to the verdict the model produced
// for that content — the winning family and the full probability
// distribution, plus an optional graph embedding for explain-style
// consumers. The serving layer stores two kinds of key in one cache, under
// one byte budget and one LRU:
//
//   * the canonical ACFG content hash (cache/acfg_hash.hpp), which also
//     catches listings whose bytes differ but whose CFG does not;
//   * the listing key, listing_key() of the decoded listing bytes, which
//     answers a byte-identical resubmission before extraction. A listing
//     key is stored only when its ACFG key already hit (second sighting),
//     so unique traffic adds no listing entries. It is keyed_bytes_hash
//     under a secret each cache draws from std::random_device when it is
//     built: the listing bytes come from the submitter, a hit returns the
//     stored verdict without looking at them, and the unkeyed hash can be
//     driven into a chosen collision (DESIGN.md, "Verdict cache").
//
// Both are consulted *ahead of* the micro-batcher: a hit resolves the
// request immediately without ever touching the queue, a replica lease, or
// a forward pass; a miss proceeds to packed inference and inserts its ACFG
// key on completion. A request that probes both keys counts once: get()
// counts its own probe, probe() counts nothing and leaves the caller to
// count the request through count().
//
// Concurrency: the key space is split across `shards` independent shards
// (key.hi selects the shard), each a mutex-protected LRU list + index, so
// concurrent get/insert on different shards never contend. Within a shard
// the mutex is held for O(1) list splicing; values are copied out under the
// lock (entries can be evicted the instant the lock drops, so handing out
// references would dangle).
//
// Memory: the cache is bounded by bytes, not entries — a verdict for a
// 13-family model costs a few hundred bytes, one with a stored embedding
// can cost kilobytes. Each shard owns max_bytes / shards; inserting past
// the bound evicts least-recently-used entries until the new entry fits.
// An entry larger than a whole shard budget is not cached at all
// (oversized counter). Each shard allocates its LRU list nodes, index
// nodes and the stored names, probabilities and embeddings from its own
// std::pmr::unsynchronized_pool_resource (guarded by the shard mutex), not
// from the general heap. Entries live long and are allocated by the
// inference worker between its short-lived batch tensors; from malloc
// each one lands between freed tensor blocks and pins them. In a
// perfbench scan_sortpool_dup run with plain-heap entries, malloc_info
// showed one thread arena at 82 MiB, 74 MiB of it free in 4,337 chunks,
// and peak RSS was 178 MiB; with the pools, 112 MiB (DESIGN.md, "Verdict
// cache"). Evicted entries return their blocks to the shard pool for the
// next insert, and clear() releases the pools.
//
// There is no TTL: content hashes never go stale — the same bytes always
// classify the same way for a fixed model — so recency is the only
// eviction signal. Model hot-swaps must drop the cache
// (verdicts are per-model); servers own their cache instance, so a new
// server over new weights starts cold by construction.
//
// Observability: hit/listing-hit/miss/insert/eviction/oversized counters
// are kept per-cache (exact snapshot()) and mirrored into the process-wide
// magic::obs registry under "cache.*" while obs::enabled(), following the
// serve::StatsCollector discipline.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/acfg_hash.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace magic::cache {

/// Tuning knobs of one VerdictCache.
struct CacheConfig {
  /// Total byte budget across all shards (approximate deep size of the
  /// stored values plus per-entry bookkeeping).
  std::size_t max_bytes = 64ull << 20;
  /// Number of independent LRU shards; clamped to >= 1. More shards =
  /// less lock contention, slightly coarser LRU.
  std::size_t shards = 8;
};

/// The cached outcome of classifying one content hash. Mirrors
/// core::Prediction (the cache layer sits below magic_core in the link
/// graph, so it carries the fields rather than the type).
struct CachedVerdict {
  std::size_t family_index = 0;
  std::string family_name;
  std::vector<double> probabilities;
  /// Optional graph embedding for explain-style reuse (empty when the
  /// producer did not compute one).
  std::vector<double> embedding;

  /// Approximate deep size in bytes (the unit of the cache byte bound).
  std::size_t bytes() const noexcept;
};

/// Point-in-time counters of one VerdictCache.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t listing_hits = 0;  ///< the subset of hits answered by a listing key
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t oversized = 0;  ///< inserts skipped: entry > shard budget
  std::uint64_t entries = 0;    ///< resident entries right now
  std::uint64_t bytes = 0;      ///< resident bytes right now
  std::uint64_t max_bytes = 0;  ///< configured bound
  /// Set by VerdictCache::stats(); a default-constructed (all-zero)
  /// CacheStats therefore reads as "no cache configured", which is exactly
  /// what the serve layer embeds when it runs cache-less.
  bool enabled = false;

  double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
  /// Single-line JSON object (embedded in the serve `stats` wire reply).
  std::string to_json() const;
};

/// How one request's cache lookup ended (the unit of the hit/miss counters).
enum class Lookup { kMiss, kHit, kListingHit };

/// Sharded, byte-bounded, TTL-free LRU cache from content hash to verdict.
/// All public methods are thread-safe.
class VerdictCache {
 public:
  explicit VerdictCache(CacheConfig config = {});

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// Returns a copy of the cached verdict and marks it most-recently-used;
  /// std::nullopt on miss. Counts a hit or a miss.
  std::optional<CachedVerdict> get(const CacheKey& key);

  /// get() without counting, for a request that probes more than one key;
  /// its caller counts the request once through count().
  std::optional<CachedVerdict> probe(const CacheKey& key);

  /// Counts one request's lookup: a kListingHit counts as a hit and as a
  /// listing hit.
  void count(Lookup outcome) noexcept;

  /// Inserts (or refreshes) `value` under `key`, evicting LRU entries of
  /// the shard until it fits. An entry larger than the per-shard budget is
  /// dropped (counted as oversized, not inserted).
  void insert(const CacheKey& key, const CachedVerdict& value);

  /// This cache's key for a listing's decoded bytes: keyed_bytes_hash
  /// under the cache's own secret, so another cache (or an outsider) cannot
  /// compute it. Stable for the life of the cache.
  CacheKey listing_key(std::string_view bytes) const noexcept {
    return keyed_bytes_hash(listing_secret_, bytes.data(), bytes.size());
  }

  /// Drops every entry (counters keep accumulating).
  void clear();

  /// Exact counter snapshot plus current entry/byte residency.
  CacheStats stats() const;

  std::size_t max_bytes() const noexcept { return config_.max_bytes; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  /// A resident verdict; its storage comes from the shard's pool.
  struct Entry {
    Entry(const CacheKey& k, const CachedVerdict& v, std::size_t cost,
          std::pmr::memory_resource* pool);
    void assign(const CachedVerdict& v, std::size_t cost);
    CachedVerdict copy() const;

    CacheKey key;
    std::size_t family_index = 0;
    std::pmr::string family_name;
    std::pmr::vector<double> probabilities;
    std::pmr::vector<double> embedding;
    std::size_t bytes = 0;  // cost of the inserted CachedVerdict
  };
  using LruList = std::pmr::list<Entry>;
  using Index = std::pmr::unordered_map<CacheKey, LruList::iterator, CacheKeyHash>;

  /// One independent LRU domain. The shard mutex is a leaf lock: nothing
  /// else is ever acquired while it is held.
  struct Shard {
    mutable util::Mutex mutex;
    /// Backs every allocation of lru and index (declared first, so it
    /// outlives them).
    std::pmr::unsynchronized_pool_resource pool MAGIC_GUARDED_BY(mutex);
    /// front = most recently used, back = eviction candidate.
    LruList lru MAGIC_GUARDED_BY(mutex){&pool};
    Index index MAGIC_GUARDED_BY(mutex){&pool};
    std::size_t bytes MAGIC_GUARDED_BY(mutex) = 0;
  };

  Shard& shard_for(const CacheKey& key) noexcept {
    return shards_[static_cast<std::size_t>(key.hi) % shards_.size()];
  }
  const Shard& shard_at(std::size_t i) const noexcept { return shards_[i]; }

  static void bump(obs::Counter& local, obs::Counter* mirror) noexcept {
    local.add();
    if (obs::enabled()) mirror->add();
  }

  CacheConfig config_;
  /// Secret of listing_key(), drawn once per cache.
  CacheKey listing_secret_;
  std::size_t shard_budget_ = 0;
  std::vector<Shard> shards_;

  obs::Counter hits_;
  obs::Counter listing_hits_;
  obs::Counter misses_;
  obs::Counter insertions_;
  obs::Counter evictions_;
  obs::Counter oversized_;

  /// Cached handles into the process-wide registry ("cache.*" names);
  /// only written while obs::enabled().
  struct GlobalMirror {
    obs::Counter* hits;
    obs::Counter* listing_hits;
    obs::Counter* misses;
    obs::Counter* insertions;
    obs::Counter* evictions;
    obs::Counter* oversized;
    obs::Gauge* bytes;
    obs::Gauge* entries;
  };
  GlobalMirror global_;
};

}  // namespace magic::cache
