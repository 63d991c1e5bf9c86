#include "cache/verdict_cache.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace magic::cache {

std::size_t CachedVerdict::bytes() const noexcept {
  // Approximate deep size: the struct, heap storage of the two double
  // vectors and the family name, plus the LRU/index bookkeeping an entry
  // costs (list node pointers + hash bucket). Close enough for a budget;
  // exactness is not the point, monotonicity is.
  constexpr std::size_t kPerEntryOverhead = 96;
  return sizeof(CachedVerdict) + family_name.capacity() +
         probabilities.capacity() * sizeof(double) +
         embedding.capacity() * sizeof(double) + kPerEntryOverhead;
}

std::string CacheStats::to_json() const {
  std::ostringstream os;
  os << "{\"enabled\":" << (enabled ? "true" : "false") << ",\"hits\":" << hits
     << ",\"misses\":" << misses << ",\"hit_rate\":" << hit_rate()
     << ",\"insertions\":" << insertions << ",\"evictions\":" << evictions
     << ",\"oversized\":" << oversized << ",\"entries\":" << entries
     << ",\"bytes\":" << bytes << ",\"max_bytes\":" << max_bytes << "}";
  return os.str();
}

VerdictCache::Entry::Entry(const CacheKey& k, const CachedVerdict& v, std::size_t cost,
                           std::pmr::memory_resource* pool)
    : key(k),
      family_index(v.family_index),
      family_name(v.family_name, pool),
      probabilities(v.probabilities.begin(), v.probabilities.end(), pool),
      embedding(v.embedding.begin(), v.embedding.end(), pool),
      bytes(cost) {}

void VerdictCache::Entry::assign(const CachedVerdict& v, std::size_t cost) {
  family_index = v.family_index;
  family_name.assign(v.family_name);
  probabilities.assign(v.probabilities.begin(), v.probabilities.end());
  embedding.assign(v.embedding.begin(), v.embedding.end());
  bytes = cost;
}

CachedVerdict VerdictCache::Entry::copy() const {
  CachedVerdict out;
  out.family_index = family_index;
  out.family_name.assign(family_name);
  out.probabilities.assign(probabilities.begin(), probabilities.end());
  out.embedding.assign(embedding.begin(), embedding.end());
  return out;
}

VerdictCache::VerdictCache(CacheConfig config)
    : config_(config), shards_(std::max<std::size_t>(1, config.shards)) {
  config_.shards = shards_.size();
  shard_budget_ = std::max<std::size_t>(1, config_.max_bytes / shards_.size());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  global_.hits = &registry.counter("cache.hits");
  global_.misses = &registry.counter("cache.misses");
  global_.insertions = &registry.counter("cache.insertions");
  global_.evictions = &registry.counter("cache.evictions");
  global_.oversized = &registry.counter("cache.oversized");
  global_.bytes = &registry.gauge("cache.bytes");
  global_.entries = &registry.gauge("cache.entries");
}

std::optional<CachedVerdict> VerdictCache::get(const CacheKey& key) {
  Shard& shard = shard_for(key);
  {
    util::MutexLock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Touch: move to the MRU end while the lock pins the iterator.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      CachedVerdict copy = it->second->copy();
      bump(hits_, global_.hits);
      return copy;
    }
  }
  bump(misses_, global_.misses);
  return std::nullopt;
}

void VerdictCache::insert(const CacheKey& key, const CachedVerdict& value) {
  const std::size_t cost = value.bytes();
  if (cost > shard_budget_) {
    // Would evict the whole shard and still not amortize: refuse rather
    // than letting one pathological entry wipe the working set.
    bump(oversized_, global_.oversized);
    return;
  }
  Shard& shard = shard_for(key);
  std::uint64_t evicted = 0;
  std::uint64_t entries = 0;
  std::size_t bytes = 0;
  {
    util::MutexLock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh: replace the value in place and touch.
      shard.bytes -= it->second->bytes;
      it->second->assign(value, cost);
      shard.bytes += cost;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      while (shard.bytes + cost > shard_budget_ && !shard.lru.empty()) {
        const Entry& victim = shard.lru.back();
        shard.bytes -= victim.bytes;
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        ++evicted;
      }
      shard.lru.emplace_front(key, value, cost, &shard.pool);
      shard.index.emplace(key, shard.lru.begin());
      shard.bytes += cost;
    }
    entries = shard.lru.size();
    bytes = shard.bytes;
  }
  bump(insertions_, global_.insertions);
  for (std::uint64_t e = 0; e < evicted; ++e) bump(evictions_, global_.evictions);
  if (obs::enabled()) {
    // Per-shard residency is a fine proxy gauge; exact totals come from
    // stats(). (entries/bytes of the *touched* shard, cheap and monotone
    // enough for dashboards.)
    global_.bytes->set(static_cast<double>(bytes));
    global_.entries->set(static_cast<double>(entries));
  }
}

void VerdictCache::clear() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    // Replace the index rather than clear() it, so its bucket array goes
    // back to the pool too, then hand the pool's chunks back to the heap.
    shard.index = Index(&shard.pool);
    shard.lru.clear();
    shard.pool.release();
    shard.bytes = 0;
  }
}

CacheStats VerdictCache::stats() const {
  CacheStats out;
  out.enabled = true;
  out.hits = hits_.value();
  out.misses = misses_.value();
  out.insertions = insertions_.value();
  out.evictions = evictions_.value();
  out.oversized = oversized_.value();
  out.max_bytes = config_.max_bytes;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shard_at(i);
    util::MutexLock lock(shard.mutex);
    out.entries += shard.lru.size();
    out.bytes += shard.bytes;
  }
  return out;
}

}  // namespace magic::cache
