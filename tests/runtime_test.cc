// Tests for the concurrent batch-disambiguation runtime: the sharded
// mutex-striped LRU cache (capacity, eviction order, exact concurrent
// hit counting), the bounded MPMC job queue, the shared similarity and
// sense-inventory caches, and the engine's determinism guarantee —
// the same corpus run with 1 and 8 workers must produce byte-identical
// semantic trees, and both must match the plain single-threaded
// library path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/disambiguator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/scores.h"
#include "datasets/generator.h"
#include "oracles/string_pipeline.h"
#include "runtime/engine.h"
#include "runtime/job_queue.h"
#include "runtime/sense_inventory_cache.h"
#include "runtime/sharded_lru_cache.h"
#include "runtime/similarity_cache.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf::runtime {
namespace {

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

/// The cache key-space fingerprint of the default composition.
uint64_t HybridFingerprint() {
  return SimilarityCache::ConfigFingerprint(sim::MeasureConfig::PaperHybrid());
}

// ======================= ShardedLruCache ==========================

TEST(ShardedLruCacheTest, InsertThenLookup) {
  ShardedLruCache<int, int> cache(/*capacity=*/64);
  int value = 0;
  EXPECT_FALSE(cache.Lookup(1, &value));
  cache.Insert(1, 10);
  ASSERT_TRUE(cache.Lookup(1, &value));
  EXPECT_EQ(value, 10);
  CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsedFirst) {
  // One shard makes recency order global and eviction deterministic.
  ShardedLruCache<int, int> cache(/*capacity=*/3, /*shard_count=*/1);
  cache.Insert(1, 1);
  cache.Insert(2, 2);
  cache.Insert(3, 3);
  // Touch 1 so 2 becomes the LRU entry, then overflow.
  int value = 0;
  ASSERT_TRUE(cache.Lookup(1, &value));
  cache.Insert(4, 4);
  EXPECT_FALSE(cache.Lookup(2, &value)) << "LRU entry should be evicted";
  EXPECT_TRUE(cache.Lookup(1, &value));
  EXPECT_TRUE(cache.Lookup(3, &value));
  EXPECT_TRUE(cache.Lookup(4, &value));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ShardedLruCacheTest, InsertOverwritesAndRefreshes) {
  ShardedLruCache<int, int> cache(/*capacity=*/2, /*shard_count=*/1);
  cache.Insert(1, 10);
  cache.Insert(2, 20);
  cache.Insert(1, 11);  // overwrite: 2 is now LRU
  cache.Insert(3, 30);
  int value = 0;
  EXPECT_FALSE(cache.Lookup(2, &value));
  ASSERT_TRUE(cache.Lookup(1, &value));
  EXPECT_EQ(value, 11);
}

TEST(ShardedLruCacheTest, CapacitySplitsAcrossShards) {
  ShardedLruCache<int, int> cache(/*capacity=*/64, /*shard_count=*/8);
  for (int i = 0; i < 1000; ++i) cache.Insert(i, i);
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(cache.GetStats().evictions, 0u);
}

TEST(ShardedLruCacheTest, ResetCountersKeepsEntries) {
  ShardedLruCache<int, int> cache(/*capacity=*/16);
  cache.Insert(1, 1);
  int value = 0;
  EXPECT_TRUE(cache.Lookup(1, &value));
  cache.ResetCounters();
  CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_TRUE(cache.Lookup(1, &value));
}

TEST(SimilarityCacheTest, EvictsDeterministicallyWhenASetOverflows) {
  // Tiny table (64 slots = 16 sets x 4 ways): inserting far more keys
  // than slots must overwrite, keep exact counters, and keep every
  // readable value correct (a stale value for a key is impossible —
  // the mixed key is bijective, so a slot's key identifies its value).
  SimilarityCache cache(/*capacity=*/1, /*stripe_count=*/2,
                        HybridFingerprint());
  constexpr uint64_t kKeys = 1024;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    cache.Insert(k, static_cast<double>(k) * 0.5);
  }
  CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.capacity, 64u);
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_GT(stats.evictions, 0u);
  size_t found = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    double value = 0.0;
    if (cache.Lookup(k, &value)) {
      EXPECT_DOUBLE_EQ(value, static_cast<double>(k) * 0.5) << k;
      ++found;
    }
  }
  EXPECT_GT(found, 0u);
  EXPECT_LE(found, stats.capacity);
  stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, kKeys);
  EXPECT_EQ(stats.hits, found);
}

TEST(ShardedLruCacheTest, GetOrComputeComputesOnce) {
  ShardedLruCache<int, int> cache(/*capacity=*/16);
  int computed = 0;
  auto compute = [&] {
    ++computed;
    return 7;
  };
  EXPECT_EQ(cache.GetOrCompute(5, compute), 7);
  EXPECT_EQ(cache.GetOrCompute(5, compute), 7);
  EXPECT_EQ(computed, 1);
}

TEST(ShardedLruCacheTest, ConcurrentHitCountingIsExact) {
  // N threads hammer a cache whose working set fits entirely, so after
  // the warm-up insert every lookup is a hit and the aggregate
  // counters must account for every single operation.
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  constexpr int kRounds = 500;
  ShardedLruCache<int, int> cache(/*capacity=*/kKeys * 2,
                                  /*shard_count=*/16);
  for (int k = 0; k < kKeys; ++k) cache.Insert(k, k);
  cache.ResetCounters();

  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      uint64_t mine = 0;
      int value = 0;
      for (int r = 0; r < kRounds; ++r) {
        for (int k = 0; k < kKeys; ++k) {
          if (cache.Lookup(k, &value)) ++mine;
        }
      }
      observed_hits.fetch_add(mine);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const uint64_t expected =
      static_cast<uint64_t>(kThreads) * kRounds * kKeys;
  CacheStats stats = cache.GetStats();
  EXPECT_EQ(observed_hits.load(), expected);
  EXPECT_EQ(stats.hits, expected);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits + stats.misses, expected);
}

// ======================== BoundedJobQueue =========================

TEST(BoundedJobQueueTest, FifoWithinCapacity) {
  BoundedJobQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
}

TEST(BoundedJobQueueTest, CloseDrainsThenEnds) {
  BoundedJobQueue<int> queue(4);
  queue.Push(1);
  queue.Push(2);
  queue.Close();
  EXPECT_FALSE(queue.Push(3));
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BoundedJobQueueTest, BlockingProducersAndConsumersDeliverAll) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  BoundedJobQueue<int> queue(8);  // far smaller than the item count
  std::atomic<long> sum{0};
  std::atomic<int> count{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.Pop()) {
        sum.fetch_add(*item);
        count.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  for (std::thread& thread : producers) thread.join();
  queue.Close();
  for (std::thread& thread : consumers) thread.join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long>(total) * (total - 1) / 2);
}

// ==================== Similarity / sense caches ===================

TEST(SimilarityCacheTest, RoundTripsThroughHookInterface) {
  SimilarityCache cache(/*capacity=*/128, /*shard_count=*/4,
                        HybridFingerprint());
  sim::SimilarityCacheHook* hook = &cache;
  double value = 0.0;
  EXPECT_FALSE(hook->Lookup(42, &value));
  hook->Insert(42, 0.75);
  ASSERT_TRUE(hook->Lookup(42, &value));
  EXPECT_DOUBLE_EQ(value, 0.75);
  CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(SimilarityCacheTest, ConfigFingerprintsDistinguishWeights) {
  // Same three measures, different weights: different key spaces.
  const auto edge_only = sim::MeasureConfig::PaperHybrid(1.0, 0.0, 0.0);
  EXPECT_NE(HybridFingerprint(), SimilarityCache::ConfigFingerprint(edge_only));
  EXPECT_EQ(HybridFingerprint(),
            SimilarityCache::ConfigFingerprint(sim::MeasureConfig::PaperHybrid(
                1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)));
}

// Regression for the pre-registry fingerprint, which hashed only the
// three default weights: two registry compositions that share every
// weight (and hence every pair key) must still land on distinct cache
// slots. MixKeyForTest exposes the stored key; different mixed keys
// for the same pair is exactly "no aliasing even if the tables were
// ever merged".
TEST(SimilarityCacheTest, DistinctConfigsNeverShareCacheSlots) {
  auto hybrid = sim::MeasureConfig::PaperHybrid();
  auto density = *sim::MeasureConfig::Parse("conceptual-density:1");
  // Same single weight 1.0, different measure name — the case the old
  // weights-only fingerprint aliased.
  auto wu_only = *sim::MeasureConfig::Parse("wu-palmer:1");
  auto resnik_only = *sim::MeasureConfig::Parse("resnik:1");
  SimilarityCache cache_a(128, 4,
                          SimilarityCache::ConfigFingerprint(wu_only));
  SimilarityCache cache_b(128, 4,
                          SimilarityCache::ConfigFingerprint(resnik_only));
  SimilarityCache cache_c(128, 4,
                          SimilarityCache::ConfigFingerprint(hybrid));
  SimilarityCache cache_d(128, 4,
                          SimilarityCache::ConfigFingerprint(density));
  for (uint64_t pair_key : {uint64_t{0}, uint64_t{1}, uint64_t{42},
                            (uint64_t{7} << 32) | 9, ~uint64_t{0}}) {
    EXPECT_NE(cache_a.MixKeyForTest(pair_key),
              cache_b.MixKeyForTest(pair_key));
    EXPECT_NE(cache_c.MixKeyForTest(pair_key),
              cache_d.MixKeyForTest(pair_key));
    EXPECT_NE(cache_a.MixKeyForTest(pair_key),
              cache_c.MixKeyForTest(pair_key));
  }
  // Same composition -> same keys (two engines with one config still
  // agree on what an entry means).
  SimilarityCache cache_c2(128, 4,
                           SimilarityCache::ConfigFingerprint(hybrid));
  EXPECT_EQ(cache_c.MixKeyForTest(42), cache_c2.MixKeyForTest(42));
  // And a value inserted under one config is invisible under another
  // even for the identical pair key.
  cache_a.Insert(42, 0.25);
  double value = 0.0;
  ASSERT_TRUE(cache_a.Lookup(42, &value));
  EXPECT_FALSE(cache_b.Lookup(42, &value));
}

// The engine keys its shared cache on the *effective* measure config,
// so two engines differing only in --measures resolve the same
// document against disjoint cache key spaces and produce their own
// (different) outputs.
TEST(EngineTest, MeasureConfigChangesOutputAndCacheKeys) {
  const auto& network = Network();
  EngineOptions base;
  base.threads = 2;
  EngineOptions density = base;
  density.disambiguator.measure_config =
      *sim::MeasureConfig::Parse("conceptual-density:1");
  DisambiguationEngine hybrid_engine(&network, base);
  DisambiguationEngine density_engine(&network, density);
  std::vector<DocumentJob> jobs;
  const auto& figure1 = datasets::Figure1Documents();
  ASSERT_FALSE(figure1.empty());
  jobs.push_back({0, figure1[0].name, figure1[0].xml});
  auto hybrid_results = hybrid_engine.RunBatch(jobs);
  auto density_results = density_engine.RunBatch(jobs);
  ASSERT_EQ(hybrid_results.size(), 1u);
  ASSERT_EQ(density_results.size(), 1u);
  ASSERT_TRUE(hybrid_results[0].ok);
  ASSERT_TRUE(density_results[0].ok);
  // Both run to completion; the effective config is what the engine
  // fingerprinted, so rerunning under the same config is stable.
  auto hybrid_again = hybrid_engine.RunBatch(jobs);
  ASSERT_TRUE(hybrid_again[0].ok);
  EXPECT_EQ(hybrid_again[0].semantic_xml, hybrid_results[0].semantic_xml);
}

TEST(SimilarityCacheTest, MeasureUsesExternalCache) {
  const auto& network = Network();
  sim::CombinedMeasure measure;
  SimilarityCache cache(/*capacity=*/1024, /*shard_count=*/4,
                        SimilarityCache::ConfigFingerprint(measure.config()));
  measure.set_external_cache(&cache);
  auto star = network.Senses("star");
  ASSERT_GE(star.size(), 2u);
  double first = measure.Similarity(network, star[0], star[1]);
  double second = measure.Similarity(network, star[0], star[1]);
  EXPECT_DOUBLE_EQ(first, second);
  CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(SenseInventoryCacheTest, MatchesEnumerateCandidates) {
  const auto& network = Network();
  core::LabelSpace space(&network);
  SenseInventoryCache cache(/*capacity=*/256);
  for (const char* label : {"star", "movie", "title", "director"}) {
    auto expected = oracles::EnumerateCandidates(network, label);
    auto cold = cache.Entry(space, space.Resolve(label));
    auto warm = cache.Entry(space, space.Resolve(label));
    ASSERT_NE(cold, nullptr);
    EXPECT_EQ(cold->candidates, expected) << label;
    EXPECT_EQ(warm->candidates, expected) << label;
  }
  CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 4u);
}

TEST(SenseInventoryCacheTest, EvictionKeepsInFlightEntriesAlive) {
  // Regression: a worker that fetched an entry cold must be able to
  // keep scoring against it while later lookups evict it — the cache
  // hands out shared ownership, never references into its own storage.
  const auto& network = Network();
  core::LabelSpace space(&network);
  // One single-entry shard: every insert evicts the previous entry.
  SenseInventoryCache cache(/*capacity=*/1, /*shard_count=*/1);
  const uint32_t star_id = space.Resolve("star");
  std::shared_ptr<const core::SenseEntry> held = cache.Entry(space, star_id);
  ASSERT_NE(held, nullptr);
  const std::vector<core::SenseCandidate> expected = held->candidates;
  for (const char* label : {"movie", "title", "director", "actor"}) {
    cache.Entry(space, space.Resolve(label));
  }
  EXPECT_GT(cache.GetStats().evictions, 0u);
  // The held entry is still alive and byte-for-byte what it was
  // (a use-after-free here is what the old copy-based design was
  // guarding against by copying; shared_ptr ownership replaces it).
  EXPECT_EQ(held->candidates, expected);
  // A post-eviction lookup recomputes the same pure value.
  EXPECT_EQ(cache.Entry(space, star_id)->candidates, expected);
}

TEST(SenseInventoryCacheTest, ConcurrentChurnUnderEvictionIsSafe) {
  const auto& network = Network();
  core::LabelSpace space(&network);
  SenseInventoryCache cache(/*capacity=*/1, /*shard_count=*/1);
  const std::vector<std::string> labels = {"star", "movie", "title",
                                           "director"};
  std::vector<uint32_t> ids;
  std::vector<std::vector<core::SenseCandidate>> expected;
  for (const std::string& label : labels) {
    ids.push_back(space.Resolve(label));
    expected.push_back(oracles::EnumerateCandidates(network, label));
  }
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const size_t k = static_cast<size_t>(t + i) % labels.size();
        auto entry = cache.Entry(space, ids[k]);
        if (entry == nullptr || entry->candidates != expected[k]) {
          mismatch = true;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(mismatch.load())
      << "an evicted-but-held entry changed or vanished mid-use";
}

// =========================== Engine ===============================

std::vector<DocumentJob> TestCorpus() {
  std::vector<DocumentJob> jobs;
  for (const auto& doc : datasets::Figure1Documents()) {
    jobs.push_back({0, doc.name, doc.xml});
  }
  // Two generator families keep the corpus varied but the test fast.
  const auto& generators = datasets::AllDatasets();
  for (size_t g = 0; g < 2 && g < generators.size(); ++g) {
    for (const auto& doc : generators[g]->Generate(/*seed=*/7)) {
      jobs.push_back({0, doc.name, doc.xml});
    }
  }
  return jobs;
}

std::vector<std::string> RunWithThreads(int threads, bool pair_cache_on) {
  EngineOptions options;
  options.threads = threads;
  options.enable_similarity_cache = pair_cache_on;
  DisambiguationEngine engine(&Network(), options);
  std::vector<DocumentResult> results = engine.RunBatch(TestCorpus());
  std::vector<std::string> trees;
  trees.reserve(results.size());
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok) << result.name << ": " << result.error;
    trees.push_back(result.semantic_xml);
  }
  return trees;
}

TEST(DisambiguationEngineTest, OneAndEightWorkersAreByteIdentical) {
  std::vector<std::string> one = RunWithThreads(1, /*pair_cache_on=*/true);
  std::vector<std::string> eight = RunWithThreads(8, /*pair_cache_on=*/true);
  ASSERT_EQ(one.size(), eight.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], eight[i]) << "document " << i;
  }
}

TEST(DisambiguationEngineTest, CachesDoNotChangeResults) {
  std::vector<std::string> on = RunWithThreads(4, /*pair_cache_on=*/true);
  std::vector<std::string> off = RunWithThreads(4, /*pair_cache_on=*/false);
  EXPECT_EQ(on, off);
}

TEST(DisambiguationEngineTest, MatchesSingleThreadedLibraryPath) {
  std::vector<DocumentJob> jobs = TestCorpus();
  std::vector<std::string> engine_trees =
      RunWithThreads(8, /*pair_cache_on=*/true);
  core::Disambiguator disambiguator(&Network());
  ASSERT_EQ(engine_trees.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto semantic_tree = disambiguator.RunOnXml(jobs[i].xml);
    ASSERT_TRUE(semantic_tree.ok()) << jobs[i].name;
    EXPECT_EQ(engine_trees[i],
              core::SemanticTreeToXml(*semantic_tree, Network()))
        << jobs[i].name;
  }
}

TEST(DisambiguationEngineTest, ResultsKeepJobOrderAndMetadata) {
  EngineOptions options;
  options.threads = 4;
  DisambiguationEngine engine(&Network(), options);
  std::vector<DocumentJob> jobs = TestCorpus();
  std::vector<DocumentResult> results = engine.RunBatch(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].name, jobs[i].name);
    EXPECT_GT(results[i].node_count, 0u);
  }
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.documents, jobs.size());
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GT(stats.assignments, 0u);
}

TEST(DisambiguationEngineTest, SecondPassRunsHot) {
  obs::MetricsRegistry metrics;
  EngineOptions options;
  options.threads = 4;
  options.metrics = &metrics;
  DisambiguationEngine engine(&Network(), options);
  std::vector<DocumentJob> jobs = TestCorpus();
  engine.RunBatch(jobs);
  engine.PublishStatsToMetrics();
  const int64_t resolved_after_first =
      metrics.GetGauge("label_space.resolved_senses")->Value();
  EXPECT_GT(resolved_after_first, 0);
  engine.ResetCounters();
  engine.RunBatch(jobs);
  EngineStats stats = engine.stats();
  EXPECT_GT(stats.similarity_cache.lookups(), 0u);
  EXPECT_GT(stats.similarity_cache.HitRate(), 0.5)
      << "warm second pass must mostly hit the similarity cache";
  // Every label's senses and candidates were memoized by the first
  // pass, so the second resolves no new label.
  engine.PublishStatsToMetrics();
  EXPECT_EQ(metrics.GetGauge("label_space.resolved_senses")->Value(),
            resolved_after_first);
}

TEST(DisambiguationEngineTest, MalformedDocumentFailsAlone) {
  EngineOptions options;
  options.threads = 2;
  DisambiguationEngine engine(&Network(), options);
  std::vector<DocumentJob> jobs;
  jobs.push_back({0, "good", "<films><star>Kelly</star></films>"});
  jobs.push_back({0, "bad", "<films><unclosed></films>"});
  jobs.push_back({0, "also_good", "<films><star>Stewart</star></films>"});
  std::vector<DocumentResult> results = engine.RunBatch(jobs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_TRUE(results[2].ok);
  EXPECT_EQ(engine.stats().failures, 1u);
}

TEST(DisambiguationEngineTest, EmptyBatchReturnsEmpty) {
  DisambiguationEngine engine(&Network(), {});
  EXPECT_TRUE(engine.RunBatch({}).empty());
}

// ====================== Seqlock contention ========================

TEST(SimilarityCacheTest, ContendedWritersSurfaceRetryAndCollisionCounts) {
  // Minimum capacity (64 slots = 16 sets) so every thread lands on a
  // handful of sets; four writer threads hammer the same keys while
  // two readers poll them, which forces both flavors of seqlock
  // contention. The counters are statistical, so loop rounds until
  // both are nonzero — bounded so a pathological scheduler fails the
  // test instead of hanging it.
  SimilarityCache cache(/*capacity=*/64, /*stripe_count=*/4,
                        HybridFingerprint());
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kOpsPerRound = 4000;
  constexpr int kMaxRounds = 200;
  CacheStats stats;
  for (int round = 0; round < kMaxRounds; ++round) {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&cache, w] {
        for (int i = 0; i < kOpsPerRound; ++i) {
          // All writers cycle the same small key set -> same seqlock.
          cache.Insert(static_cast<uint64_t>(i % 8 + 1),
                       static_cast<double>(w + i));
        }
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&cache] {
        double value = 0.0;
        for (int i = 0; i < kOpsPerRound; ++i) {
          cache.Lookup(static_cast<uint64_t>(i % 8 + 1), &value);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    stats = cache.GetStats();
    if (stats.read_retries > 0 && stats.write_collisions > 0) break;
  }
  if (stats.read_retries == 0 || stats.write_collisions == 0) {
    // On a single-core or heavily loaded machine the scheduler may run
    // every thread to completion between switches, so no reader ever
    // observes an in-flight writer. The property is statistical; when
    // the environment cannot produce the interleaving, record a skip
    // instead of a spurious failure.
    GTEST_SKIP() << "scheduler produced no seqlock contention "
                 << "(read_retries=" << stats.read_retries
                 << ", write_collisions=" << stats.write_collisions << ")";
  }
  EXPECT_GT(stats.write_collisions, 0u)
      << "four writers on the same sets never collided on the seqlock";
  EXPECT_GT(stats.read_retries, 0u)
      << "readers never observed an in-flight writer";
  // The counters surface through the formatted stats line.
  EngineStats engine_stats;
  engine_stats.similarity_cache = stats;
  std::string line = FormatEngineStats(engine_stats);
  EXPECT_NE(line.find("seq retries"), std::string::npos) << line;
  EXPECT_NE(line.find("write collisions"), std::string::npos) << line;
}

TEST(SimilarityCacheTest, UncontendedTrafficReportsZeroContention) {
  SimilarityCache cache(/*capacity=*/1024, /*stripe_count=*/4,
                        HybridFingerprint());
  double value = 0.0;
  for (uint64_t key = 1; key <= 200; ++key) {
    cache.Insert(key, 1.5);
    ASSERT_TRUE(cache.Lookup(key, &value));
  }
  CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.read_retries, 0u);
  EXPECT_EQ(stats.write_collisions, 0u);
  cache.ResetCounters();
  stats = cache.GetStats();
  EXPECT_EQ(stats.read_retries, 0u);
  EXPECT_EQ(stats.write_collisions, 0u);
}

// ================== Engine observability hooks ====================

TEST(DisambiguationEngineTest, MetricsRegistryCapturesBatch) {
  obs::MetricsRegistry metrics;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &metrics;
  DisambiguationEngine engine(&Network(), options);
  std::vector<DocumentJob> jobs = TestCorpus();
  std::vector<DocumentResult> results = engine.RunBatch(jobs);
  for (const auto& result : results) ASSERT_TRUE(result.ok) << result.name;

  // Registry counters agree with the engine's own atomics.
  EngineStats stats = engine.stats();
  EXPECT_EQ(metrics.GetCounter("engine.documents")->Value(),
            stats.documents);
  EXPECT_EQ(metrics.GetCounter("engine.nodes")->Value(), stats.nodes);
  EXPECT_EQ(metrics.GetCounter("engine.assignments")->Value(),
            stats.assignments);
  EXPECT_EQ(metrics.GetCounter("engine.failures")->Value(), 0u);

  // Every document contributes one sample to each per-stage histogram.
  // The streaming front end fuses parse + tree build into one pass
  // recorded as stage.parse_us.
  for (const char* name :
       {"stage.parse_us", "stage.select_us",
        "stage.serialize_us", "engine.job_wait_us", "engine.job_run_us"}) {
    EXPECT_EQ(metrics.GetHistogram(name)->Snapshot().count, jobs.size())
        << name;
  }
  EXPECT_GT(metrics.GetHistogram("core.node_candidates")->Snapshot().count,
            0u);

  // Cache gauges appear after publishing.
  engine.PublishStatsToMetrics();
  EXPECT_EQ(static_cast<uint64_t>(
                metrics.GetGauge("cache.similarity.hits")->Value()),
            stats.similarity_cache.hits);
}

// At more than one worker the engine runs the per-target loop itself
// (inline for short target lists, in stolen chunks for long ones); both
// must still record one context and one score sample per document, as
// RunOnTree does at one worker.
TEST(DisambiguationEngineTest, StageHistogramsSampleEveryDocumentAtFourWorkers) {
  obs::MetricsRegistry metrics;
  EngineOptions options;
  options.threads = 4;
  options.metrics = &metrics;
  DisambiguationEngine engine(&Network(), options);
  std::vector<DocumentJob> jobs = TestCorpus();
  for (const auto& doc : datasets::GiantDocuments(1, 64u << 10, 3)) {
    jobs.push_back({0, doc.name, doc.xml});
  }
  for (const auto& result : engine.RunBatch(jobs)) {
    ASSERT_TRUE(result.ok) << result.name;
  }
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.subtree_parallel_docs, 0u);  // the chunked path ran
  EXPECT_LT(stats.subtree_parallel_docs, stats.documents);  // and inline
  const uint64_t documents = metrics.GetCounter("engine.documents")->Value();
  EXPECT_EQ(documents, jobs.size());
  for (const char* name :
       {"stage.select_us", "stage.context_us", "stage.score_us"}) {
    EXPECT_EQ(metrics.GetHistogram(name)->Snapshot().count, documents)
        << name;
  }
}

TEST(DisambiguationEngineTest, TraceSessionRecordsOneTidPerWorker) {
  obs::TraceSession trace;
  EngineOptions options;
  options.threads = 3;
  options.trace = &trace;
  DisambiguationEngine engine(&Network(), options);
  std::vector<DocumentJob> jobs = TestCorpus();
  engine.RunBatch(jobs);

  std::vector<obs::TraceSession::ExportedEvent> events = trace.Snapshot();
  ASSERT_FALSE(events.empty());
  size_t documents = 0;
  std::vector<int> tids;
  for (const auto& event : events) {
    if (event.name == "document") ++documents;
    EXPECT_TRUE(event.thread_name.rfind("worker-", 0) == 0)
        << "unexpected unnamed recording thread (tid " << event.tid << ")";
    if (std::find(tids.begin(), tids.end(), event.tid) == tids.end()) {
      tids.push_back(event.tid);
    }
    // Spans must lie within the session timeline.
    EXPECT_GE(event.dur_ns, 0u);
  }
  EXPECT_EQ(documents, jobs.size());
  EXPECT_LE(tids.size(), 3u);  // at most one tid per worker
}

TEST(DisambiguationEngineTest, SinksDoNotChangeResults) {
  std::vector<std::string> plain = RunWithThreads(4, /*pair_cache_on=*/true);

  obs::MetricsRegistry metrics;
  obs::TraceSession trace;
  EngineOptions options;
  options.threads = 4;
  options.metrics = &metrics;
  options.trace = &trace;
  DisambiguationEngine engine(&Network(), options);
  std::vector<DocumentResult> results = engine.RunBatch(TestCorpus());
  ASSERT_EQ(results.size(), plain.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].name;
    EXPECT_EQ(results[i].semantic_xml, plain[i]) << "document " << i;
  }
}

}  // namespace
}  // namespace xsdf::runtime
