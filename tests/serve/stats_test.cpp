// ServerStats JSON rendering (golden) and the StatsCollector -> registry
// mirror. The golden test pins the full batch_size_counts array: index 0
// must be emitted so the JSON describes exactly the distribution
// mean_batch_size() averages over.

#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "serve/stats.hpp"

namespace magic::serve {
namespace {

TEST(ServerStats, ToJsonGolden) {
  ServerStats s;
  s.submitted = 10;
  s.completed = 8;
  s.rejected_full = 1;
  s.rejected_shutdown = 0;
  s.expired = 1;
  s.failed = 0;
  s.batches = 3;
  s.packed_batches = 1;
  s.queue_depth = 2;
  s.workers = 4;
  s.batch_size_counts = {0, 2, 1};  // two 1-batches, one 2-batch
  s.latency_p50_ms = 1.5;
  s.latency_p95_ms = 2.5;
  s.latency_p99_ms = 3.5;
  s.latency_mean_ms = 2.0;
  s.latency_max_ms = 4.0;
  s.cache.enabled = true;
  s.cache.hits = 3;
  s.cache.listing_hits = 2;
  s.cache.misses = 7;
  s.cache.insertions = 7;
  s.cache.entries = 7;
  s.cache.bytes = 4096;
  s.cache.max_bytes = 1048576;
  EXPECT_EQ(s.to_json(),
            "{\"submitted\":10,\"completed\":8,\"rejected_full\":1,"
            "\"rejected_shutdown\":0,\"expired\":1,\"failed\":0,\"batches\":3,"
            "\"packed_batches\":1,"
            "\"queue_depth\":2,\"workers\":4,\"mean_batch_size\":1.33333,"
            "\"batch_size_counts\":[0,2,1],"
            "\"latency_ms\":{\"p50\":1.5,\"p95\":2.5,\"p99\":3.5,"
            "\"mean\":2,\"max\":4},"
            "\"cache\":{\"enabled\":true,\"hits\":3,\"listing_hits\":2,\"misses\":7,"
            "\"hit_rate\":0.3,\"insertions\":7,\"evictions\":0,"
            "\"oversized\":0,\"entries\":7,\"bytes\":4096,"
            "\"max_bytes\":1048576}}");
}

TEST(ServerStats, ToJsonCacheDisabledByDefault) {
  // A cache-less server still emits the block (consumers can always key on
  // "cache"), with enabled=false and all-zero counters.
  ServerStats s;
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"cache\":{\"enabled\":false,\"hits\":0"),
            std::string::npos)
      << json;
}

TEST(ServerStats, ToJsonEmitsIndexZero) {
  // Regression: index 0 used to be dropped, so the array no longer matched
  // the distribution behind mean_batch_size().
  ServerStats s;
  s.batch_size_counts = {0, 5};
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"batch_size_counts\":[0,5]"), std::string::npos) << json;
  EXPECT_DOUBLE_EQ(s.mean_batch_size(), 1.0);
}

TEST(ServerStats, MeanBatchSizeMatchesEmittedArray) {
  ServerStats s;
  s.batch_size_counts = {0, 2, 1};
  EXPECT_NEAR(s.mean_batch_size(), 4.0 / 3.0, 1e-12);
}

TEST(StatsCollector, SnapshotCountsAndBatchTable) {
  StatsCollector collector(/*max_batch=*/2);
  collector.on_submitted();
  collector.on_submitted();
  collector.on_submitted();
  collector.on_batch(1);
  collector.on_batch(1);
  collector.on_batch(2);
  collector.on_completed(1.0);
  collector.on_completed(3.0);
  collector.on_expired();

  const ServerStats s = collector.snapshot(/*queue_depth=*/1, /*workers=*/2);
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.batches, 3u);
  EXPECT_EQ(s.queue_depth, 1u);
  EXPECT_EQ(s.workers, 2u);
  ASSERT_EQ(s.batch_size_counts.size(), 3u);
  EXPECT_EQ(s.batch_size_counts[0], 0u);
  EXPECT_EQ(s.batch_size_counts[1], 2u);
  EXPECT_EQ(s.batch_size_counts[2], 1u);
  EXPECT_GT(s.latency_mean_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.latency_max_ms, 3.0);
}

TEST(StatsCollector, MirrorsIntoGlobalRegistryWhenEnabled) {
  obs::MetricsRegistry::global().reset_values();
  obs::set_enabled(true);
  {
    StatsCollector collector(/*max_batch=*/2);
    collector.on_submitted();
    collector.on_completed(2.0);
  }
  obs::set_enabled(false);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  EXPECT_EQ(registry.counter("serve.submitted").value(), 1u);
  EXPECT_EQ(registry.counter("serve.completed").value(), 1u);
  EXPECT_EQ(registry.histogram("serve.latency_ms").snapshot().count(), 1u);
  registry.reset_values();
}

TEST(StatsCollector, NoMirrorWhenDisabled) {
  obs::MetricsRegistry::global().reset_values();
  ASSERT_FALSE(obs::enabled());
  StatsCollector collector(/*max_batch=*/2);
  collector.on_submitted();
  collector.on_completed(2.0);
  EXPECT_EQ(obs::MetricsRegistry::global().counter("serve.submitted").value(), 0u);
  EXPECT_EQ(obs::MetricsRegistry::global().counter("serve.completed").value(), 0u);
  // The per-server snapshot still sees everything.
  const ServerStats s = collector.snapshot(0, 0);
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);
}

}  // namespace
}  // namespace magic::serve
