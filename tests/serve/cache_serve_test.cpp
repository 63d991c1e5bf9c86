// Verdict cache wired into InferenceServer: hits must be bit-identical to
// the uncached classify() answer (the acceptance bar of the subsystem — a
// cache that changes answers is a correctness bug, not an optimization),
// hit/miss counters must be exact, and the cache must keep the server's
// verdicts stable across duplicate submissions. The listing-key tier is
// driven through submit_listing() on generated listings.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "acfg/extractor.hpp"
#include "cache/acfg_hash.hpp"
#include "cache/forged_collision.hpp"
#include "data/corpus.hpp"
#include "data/program_generator.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/serve_test_util.hpp"

namespace magic::serve {
namespace {

using serve::testing::shared_classifier;
using serve::testing::small_graph;

ServeConfig cached_config(std::size_t cache_bytes = 8u << 20) {
  ServeConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.max_batch = 4;
  config.cache_bytes = cache_bytes;
  return config;
}

TEST(CacheServe, HitIsBitIdenticalToUncachedPredict) {
  core::MagicClassifier& clf = shared_classifier();
  const acfg::Acfg sample = small_graph(1, 7);
  const core::Prediction direct = clf.predict(sample);

  InferenceServer server(clf, cached_config());
  const Verdict miss = server.scan(sample);  // scored + inserted
  const Verdict hit = server.scan(sample);   // served from the cache
  server.stop();

  ASSERT_TRUE(miss.ok());
  ASSERT_TRUE(hit.ok());
  const ServerStats stats = server.stats();
  EXPECT_TRUE(stats.cache.enabled);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.insertions, 1u);

  for (const Verdict* verdict : {&miss, &hit}) {
    EXPECT_EQ(verdict->prediction.family_index, direct.family_index);
    EXPECT_EQ(verdict->prediction.family_name, direct.family_name);
    ASSERT_EQ(verdict->prediction.probabilities.size(),
              direct.probabilities.size());
    for (std::size_t c = 0; c < direct.probabilities.size(); ++c) {
      // Bit-identical, not approximately equal: a hit replays the exact
      // stored verdict.
      EXPECT_EQ(verdict->prediction.probabilities[c], direct.probabilities[c])
          << "class " << c;
    }
  }
}

TEST(CacheServe, DuplicateStreamCountsHitsExactly) {
  core::MagicClassifier& clf = shared_classifier();
  InferenceServer server(clf, cached_config());

  const acfg::Acfg a = small_graph(0, 1);
  const acfg::Acfg b = small_graph(1, 2);
  // First occurrences are misses; every repeat afterwards must hit because
  // scan() is synchronous (the insert completed before the next submit).
  const acfg::Acfg* stream[] = {&a, &b, &a, &a, &b, &a, &b};
  std::size_t ok = 0;
  for (const acfg::Acfg* sample : stream) {
    if (server.scan(*sample).ok()) ++ok;
  }
  server.stop();

  EXPECT_EQ(ok, 7u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 5u);
  EXPECT_EQ(stats.completed, 7u) << "hits count as completed requests";
}

TEST(CacheServe, CacheOffServerReportsDisabled) {
  core::MagicClassifier& clf = shared_classifier();
  ServeConfig config = cached_config(/*cache_bytes=*/0);
  InferenceServer server(clf, config);
  const acfg::Acfg sample = small_graph(1, 7);
  ASSERT_TRUE(server.scan(sample).ok());
  ASSERT_TRUE(server.scan(sample).ok());
  server.stop();

  const ServerStats stats = server.stats();
  EXPECT_FALSE(stats.cache.enabled);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(CacheServe, DistinctSamplesNeverHit) {
  core::MagicClassifier& clf = shared_classifier();
  InferenceServer server(clf, cached_config());
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ASSERT_TRUE(server.scan(small_graph(static_cast<int>(seed % 2), seed)).ok());
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 6u);
}

TEST(CacheServe, PendingVerdictFromHitResolvesImmediately) {
  core::MagicClassifier& clf = shared_classifier();
  InferenceServer server(clf, cached_config());
  const acfg::Acfg sample = small_graph(0, 3);
  ASSERT_TRUE(server.scan(sample).ok());
  // A duplicate submit must come back already resolved: the hit path never
  // enters the queue.
  PendingVerdict handle = server.submit(sample);
  EXPECT_TRUE(handle.ready());
  EXPECT_TRUE(handle.get().ok());
  server.stop();
  EXPECT_EQ(server.stats().cache.hits, 1u);
}

TEST(CacheServe, StatsJsonCarriesCacheBlock) {
  core::MagicClassifier& clf = shared_classifier();
  InferenceServer server(clf, cached_config());
  const acfg::Acfg sample = small_graph(1, 9);
  ASSERT_TRUE(server.scan(sample).ok());
  ASSERT_TRUE(server.scan(sample).ok());
  server.stop();
  const std::string json = server.stats().to_json();
  EXPECT_NE(json.find("\"cache\":{\"enabled\":true,\"hits\":1"),
            std::string::npos)
      << json;
}

/// A generated listing (deterministic per seed; distinct seeds give
/// distinct bytes and, with overwhelming likelihood, distinct ACFGs).
std::string generated_listing(std::uint64_t seed) {
  const auto specs = data::yancfg_family_specs();
  data::ProgramGenerator gen(specs[seed % specs.size()], util::Rng(seed));
  return gen.generate_listing();
}

/// The same program with Windows line endings: other bytes, same ACFG.
std::string with_crlf(const std::string& listing) {
  std::string out;
  for (const char c : listing) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

void expect_bit_identical(const Verdict& verdict, const core::Prediction& direct) {
  ASSERT_TRUE(verdict.ok()) << verdict.error;
  EXPECT_EQ(verdict.prediction.family_index, direct.family_index);
  EXPECT_EQ(verdict.prediction.family_name, direct.family_name);
  ASSERT_EQ(verdict.prediction.probabilities.size(), direct.probabilities.size());
  for (std::size_t c = 0; c < direct.probabilities.size(); ++c) {
    EXPECT_EQ(verdict.prediction.probabilities[c], direct.probabilities[c]) << "class " << c;
  }
}

std::uint64_t extracted_graphs() {
  return obs::MetricsRegistry::global().counter("extract.graphs").value();
}

TEST(CacheServe, ListingHitAcfgHitAndClassifyAreBitIdentical) {
  core::MagicClassifier& clf = shared_classifier();
  const std::string listing = generated_listing(11);
  const std::vector<acfg::Acfg> samples{acfg::extract_acfg_from_listing(listing)};
  core::PredictOptions options;
  options.engine = core::PredictEngine::PerSample;
  const core::Prediction direct = clf.classify(samples, options).at(0);

  InferenceServer server(clf, cached_config());
  const Verdict miss = server.scan_listing(listing);          // scored, ACFG key stored
  const Verdict acfg_hit = server.scan_listing(listing);      // ACFG key; listing key stored
  const Verdict listing_hit = server.scan_listing(listing);   // listing key
  server.stop();

  const cache::CacheStats stats = server.stats().cache;
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.listing_hits, 1u);
  EXPECT_EQ(stats.insertions, 2u) << "one ACFG entry, one listing entry";
  for (const Verdict* verdict : {&miss, &acfg_hit, &listing_hit}) {
    expect_bit_identical(*verdict, direct);
  }
}

TEST(CacheServe, ByteDifferentListingsSharingAnAcfgHitTheAcfgKeyThenTheirOwn) {
  core::MagicClassifier& clf = shared_classifier();
  const std::string original = generated_listing(12);
  const std::string commented = "; repacked build, same code\n" + original;
  const std::string crlf = with_crlf(original);
  const cache::CacheKey key = cache::acfg_content_hash(acfg::extract_acfg_from_listing(original));
  ASSERT_EQ(cache::acfg_content_hash(acfg::extract_acfg_from_listing(commented)), key);
  ASSERT_EQ(cache::acfg_content_hash(acfg::extract_acfg_from_listing(crlf)), key);

  InferenceServer server(clf, cached_config());
  const Verdict first = server.scan_listing(original);
  ASSERT_TRUE(first.ok()) << first.error;
  const core::Prediction direct = first.prediction;
  std::uint64_t expected_listing_hits = 0;
  for (const std::string* variant : {&commented, &crlf}) {
    const std::uint64_t hits_before = server.stats().cache.hits;
    // First sighting of these bytes: the ACFG key answers.
    expect_bit_identical(server.scan_listing(*variant), direct);
    EXPECT_EQ(server.stats().cache.hits, hits_before + 1);
    EXPECT_EQ(server.stats().cache.listing_hits, expected_listing_hits);
    // Its own repeats: the listing key answers.
    for (int repeat = 0; repeat < 2; ++repeat) {
      expect_bit_identical(server.scan_listing(*variant), direct);
      EXPECT_EQ(server.stats().cache.listing_hits, ++expected_listing_hits);
    }
  }
  server.stop();
  const cache::CacheStats stats = server.stats().cache;
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.listing_hits, 4u);
  EXPECT_EQ(stats.entries, 3u) << "the ACFG key and one listing key per variant";
}

TEST(CacheServe, ExtractionFailureIsNeverCached) {
  core::MagicClassifier& clf = shared_classifier();
  InferenceServer server(clf, cached_config());
  const std::string bad = "not a listing\n";
  for (int attempt = 0; attempt < 3; ++attempt) {
    const Verdict verdict = server.scan_listing(bad);
    EXPECT_EQ(verdict.status, VerdictStatus::Error);
    EXPECT_FALSE(verdict.error.empty());
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.cache.insertions, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 3u);
}

TEST(CacheServe, UniqueListingsAddOneEntryEach) {
  core::MagicClassifier& clf = shared_classifier();
  InferenceServer server(clf, cached_config());
  constexpr std::uint64_t kListings = 8;
  for (std::uint64_t seed = 0; seed < kListings; ++seed) {
    const Verdict verdict = server.scan_listing(generated_listing(100 + seed));
    ASSERT_TRUE(verdict.ok()) << verdict.error;
  }
  server.stop();
  const cache::CacheStats stats = server.stats().cache;
  EXPECT_EQ(stats.entries, kListings) << "unique traffic adds no listing keys";
  EXPECT_EQ(stats.insertions, kListings);
  EXPECT_EQ(stats.misses, kListings);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(CacheServe, ThirdSightingOnwardSkipsExtraction) {
#ifndef MAGIC_OBS_BUILD
  GTEST_SKIP() << "extract.graphs is counted only in MAGIC_OBS builds";
#endif
  core::MagicClassifier& clf = shared_classifier();
  const std::string listing = generated_listing(13);
  InferenceServer server(clf, cached_config());
  obs::set_enabled(true);
  const std::uint64_t before = extracted_graphs();
  for (int sighting = 1; sighting <= 5; ++sighting) {
    ASSERT_TRUE(server.scan_listing(listing).ok());
    const std::uint64_t expected = static_cast<std::uint64_t>(sighting < 2 ? sighting : 2);
    EXPECT_EQ(extracted_graphs() - before, expected) << "sighting " << sighting;
  }
  obs::set_enabled(false);
  server.stop();
}

TEST(CacheServe, ForgedUnkeyedCollisionDoesNotReturnAnotherListingsVerdict) {
  // A benign listing B, padded with a trailing comment, and a junk payload
  // M of the same length, forged so that their *unkeyed* byte hashes are
  // equal. Had the listing key been that public hash, admitting B (by
  // scanning it twice) would make every scan of M return B's verdict.
  std::string head = generated_listing(14) + "; build note ";
  head.resize((head.size() + 7) / 8 * 8, ' ');
  std::optional<cache::testing::ForgedPair> pair;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::string junk = "not a listing " + std::to_string(attempt);
    junk.resize(head.size(), 'x');
    pair = cache::testing::forge_collision(head, junk, "\n");
    // The forged word sits in B's comment, so it must not end the line.
    if (pair && pair->first.find('\n', head.size()) == head.size() + 8) break;
    pair.reset();
  }
  ASSERT_TRUE(pair.has_value());
  const std::string& benign = pair->first;
  const std::string& forged = pair->second;
  ASSERT_EQ(cache::bytes_content_hash(benign.data(), benign.size()),
            cache::bytes_content_hash(forged.data(), forged.size()));

  core::MagicClassifier& clf = shared_classifier();
  InferenceServer server(clf, cached_config());
  for (int sighting = 0; sighting < 3; ++sighting) {
    ASSERT_TRUE(server.scan_listing(benign).ok());
  }
  ASSERT_EQ(server.stats().cache.listing_hits, 1u) << "B's listing key is admitted";
  const Verdict verdict = server.scan_listing(forged);
  EXPECT_EQ(verdict.status, VerdictStatus::Error) << "M must be extracted, not answered";
  server.stop();
  EXPECT_EQ(server.stats().cache.listing_hits, 1u);
}

TEST(CacheServe, HitsAndMissesAddUpToRequests) {
  core::MagicClassifier& clf = shared_classifier();
  std::vector<std::string> listings;
  for (std::uint64_t seed = 0; seed < 5; ++seed) listings.push_back(generated_listing(200 + seed));
  listings.push_back(with_crlf(listings[0]));
  listings.push_back("not a listing\n");

  InferenceServer server(clf, cached_config());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> resolved{0};
  {
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([&, t] {
        for (int r = 0; r < kPerThread; ++r) {
          const std::string& listing = listings[(t * 7 + r * 3) % listings.size()];
          const Verdict verdict = server.submit_listing(listing).get();
          if (verdict.ok() || verdict.status == VerdictStatus::Error) ++resolved;
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
  }
  server.stop();
  const ServerStats stats = server.stats();
  constexpr std::uint64_t kRequests = kThreads * kPerThread;
  EXPECT_EQ(resolved.load(), static_cast<int>(kRequests));
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, kRequests);
  EXPECT_LE(stats.cache.listing_hits, stats.cache.hits);
  EXPECT_GT(stats.cache.listing_hits, 0u);
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed + stats.failed, kRequests);
}

}  // namespace
}  // namespace magic::serve
