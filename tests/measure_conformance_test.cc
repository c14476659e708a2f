// Conformance harness every registered similarity measure must pass
// (the contract stated on sim::SimilarityMeasure, checked rather than
// assumed): scores in [0, 1], bit-exact symmetry, Sim(c, c) == 1,
// determinism across repeated calls, bit-identity at every supported
// SIMD dispatch level, and 1-vs-8-worker byte-identity of full engine
// output under every measure composition. New measures added to
// MeasureRegistry::Global() are swept automatically — the suite
// enumerates the registry, so "register it" is all a new measure needs
// to do to be held to the same bar.
//
// Also hosts the thread-safety tests (concurrent Register/Create/Names
// on the global registry, and one hookless CombinedMeasure shared by
// many threads; run under TSan in CI) and the conceptual-density
// table-vs-walk oracle equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "datasets/generator.h"
#include "oracles/legacy_similarity.h"
#include "runtime/engine.h"
#include "sim/combined.h"
#include "sim/conceptual_density.h"
#include "sim/measure.h"
#include "sim/measure_config.h"
#include "sim/wu_palmer.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf {
namespace {

using sim::MeasureConfig;
using sim::MeasureRegistry;
using wordnet::ConceptId;
using wordnet::SemanticNetwork;

const SemanticNetwork& Network() {
  static const SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Deterministic sample of concept pairs spread across the network —
/// same coverage on every run and every machine, no RNG state.
std::vector<std::pair<ConceptId, ConceptId>> SamplePairs() {
  const SemanticNetwork& network = Network();
  const size_t n = network.size();
  std::vector<std::pair<ConceptId, ConceptId>> pairs;
  for (size_t i = 0; i < n; i += 17) {
    for (size_t j = i + 3; j < n; j += 71) {
      pairs.emplace_back(static_cast<ConceptId>(i),
                         static_cast<ConceptId>(j));
    }
  }
  return pairs;
}

/// Every level this CPU and build can run (always includes scalar).
std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::DetectedLevel() >= simd::Level::kSse2) {
    levels.push_back(simd::Level::kSse2);
  }
  if (simd::DetectedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

struct LevelGuard {
  ~LevelGuard() { simd::ForceLevel(simd::DetectedLevel()); }
};

// ==================== Per-measure property sweep ====================

class MeasureConformanceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(MeasureConformanceTest, RangeSymmetryIdentityDeterminism) {
  auto created = MeasureRegistry::Global().Create(GetParam());
  ASSERT_TRUE(created.ok());
  const sim::SimilarityMeasure& measure = **created;
  const SemanticNetwork& network = Network();
  const size_t n = network.size();
  for (size_t i = 0; i < n; i += 13) {
    ConceptId c = static_cast<ConceptId>(i);
    EXPECT_EQ(Bits(measure.Similarity(network, c, c)), Bits(1.0))
        << GetParam() << " Sim(c, c) != 1 for concept " << i;
  }
  for (const auto& [a, b] : SamplePairs()) {
    double ab = measure.Similarity(network, a, b);
    double ba = measure.Similarity(network, b, a);
    EXPECT_GE(ab, 0.0) << GetParam() << " (" << a << "," << b << ")";
    EXPECT_LE(ab, 1.0) << GetParam() << " (" << a << "," << b << ")";
    EXPECT_EQ(Bits(ab), Bits(ba))
        << GetParam() << " not bit-symmetric on (" << a << "," << b << ")";
    EXPECT_EQ(Bits(ab), Bits(measure.Similarity(network, a, b)))
        << GetParam() << " not deterministic on (" << a << "," << b << ")";
  }
}

TEST_P(MeasureConformanceTest, BitIdenticalAcrossSimdLevels) {
  const SemanticNetwork& network = Network();
  const auto pairs = SamplePairs();
  LevelGuard restore;
  std::vector<uint64_t> baseline;
  for (simd::Level level : SupportedLevels()) {
    simd::ForceLevel(level);
    // A fresh instance per level: no memo or lazily built table may
    // carry scores across levels.
    auto created = MeasureRegistry::Global().Create(GetParam());
    ASSERT_TRUE(created.ok());
    std::vector<uint64_t> scores;
    scores.reserve(pairs.size());
    for (const auto& [a, b] : pairs) {
      scores.push_back(Bits((*created)->Similarity(network, a, b)));
    }
    if (baseline.empty()) {
      baseline = std::move(scores);
      continue;
    }
    ASSERT_EQ(scores.size(), baseline.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], baseline[i])
          << GetParam() << " diverges from scalar at "
          << simd::LevelName(level) << " on pair (" << pairs[i].first
          << "," << pairs[i].second << ")";
    }
  }
}

// The registry contents at suite-instantiation time: the five
// built-ins (tests that register extra probe measures run later).
INSTANTIATE_TEST_SUITE_P(
    AllRegisteredMeasures, MeasureConformanceTest,
    ::testing::ValuesIn(MeasureRegistry::Global().Names()));

TEST(MeasureRegistryConformanceTest, FiveBuiltInsRegistered) {
  auto names = MeasureRegistry::Global().Names();
  for (const char* expected :
       {"conceptual-density", "gloss-overlap", "lin", "resnik",
        "wu-palmer"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected),
              names.end())
        << expected << " missing from the global registry";
  }
}

// ==================== Conceptual density specifics ==================

TEST(ConceptualDensityConformanceTest, TableMatchesLegacyWalkOracle) {
  const SemanticNetwork& network = Network();
  sim::ConceptualDensityMeasure measure;
  for (const auto& [a, b] : SamplePairs()) {
    EXPECT_EQ(Bits(measure.Similarity(network, a, b)),
              Bits(oracles::LegacyConceptualDensity(network, a, b)))
        << "table path diverges from the walk oracle on (" << a << ","
        << b << ")";
  }
}

TEST(ConceptualDensityConformanceTest, SharedInstanceIsThreadSafe) {
  // One instance, many threads: the lazily built subtree table must
  // publish safely (this is the serve-engine sharing shape; run under
  // TSan in CI).
  const SemanticNetwork& network = Network();
  sim::ConceptualDensityMeasure measure;
  const auto pairs = SamplePairs();
  std::vector<uint64_t> expected;
  expected.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    expected.push_back(Bits(oracles::LegacyConceptualDensity(network, a, b)));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < pairs.size(); ++i) {
        if (Bits(measure.Similarity(network, pairs[i].first,
                                    pairs[i].second)) != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ==================== Combined measure sharing ======================

TEST(CombinedConformanceTest, SharedHooklessInstanceIsThreadSafe) {
  // A CombinedMeasure with no external cache holds no mutable state, so
  // one instance over every built-in may serve many threads at once
  // (run under TSan in CI). Each thread must see the bits a fresh
  // single-threaded instance computes.
  const SemanticNetwork& network = Network();
  const MeasureConfig config = *MeasureConfig::Parse(
      "wu-palmer:0.2,lin:0.2,resnik:0.2,gloss-overlap:0.2,"
      "conceptual-density:0.2");
  const auto pairs = SamplePairs();
  std::vector<uint64_t> expected;
  expected.reserve(pairs.size());
  {
    const sim::CombinedMeasure reference(config);
    for (const auto& [a, b] : pairs) {
      expected.push_back(Bits(reference.Similarity(network, a, b)));
    }
  }
  const sim::CombinedMeasure shared(config);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < pairs.size(); ++i) {
        if (Bits(shared.Similarity(network, pairs[i].first,
                                   pairs[i].second)) != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ==================== Registry thread safety ========================

TEST(MeasureRegistryConcurrencyTest, ConcurrentRegisterCreateNames) {
  // Writers hammer Register (fresh names and overwrites) on the global
  // registry while readers Create built-ins and snapshot Names — the
  // serve hot-swap shape the shared mutex exists for. TSan (CI `tsan`
  // job) turns any lost lock into a hard failure; the probe factories
  // are real measures, so later sweeps are unaffected by the leftover
  // registrations.
  std::atomic<bool> start{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([w, &start] {
      while (!start.load()) {}
      for (int i = 0; i < 200; ++i) {
        std::string name =
            "tsan-probe-" + std::to_string(w) + "-" + std::to_string(i % 8);
        MeasureRegistry::Global().Register(name, [] {
          return std::make_unique<sim::WuPalmerMeasure>();
        });
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&start, &failures] {
      while (!start.load()) {}
      for (int i = 0; i < 200; ++i) {
        auto created = MeasureRegistry::Global().Create("lin");
        if (!created.ok()) failures.fetch_add(1);
        auto names = MeasureRegistry::Global().Names();
        if (names.empty()) failures.fetch_add(1);
      }
    });
  }
  start.store(true);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  auto probe = MeasureRegistry::Global().Create("tsan-probe-0-0");
  EXPECT_TRUE(probe.ok());
}

// ==================== Engine worker-count identity ==================

std::vector<runtime::DocumentJob> ConformanceCorpus() {
  std::vector<runtime::DocumentJob> jobs;
  for (const auto& doc : datasets::Figure1Documents()) {
    jobs.push_back({0, doc.name, doc.xml});
  }
  return jobs;
}

std::vector<std::string> RunEngine(const MeasureConfig& config,
                                   int threads) {
  runtime::EngineOptions options;
  options.threads = threads;
  options.disambiguator.measure_config = config;
  runtime::DisambiguationEngine engine(&Network(), options);
  auto results = engine.RunBatch(ConformanceCorpus());
  std::vector<std::string> trees;
  trees.reserve(results.size());
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok) << result.name << ": " << result.error;
    trees.push_back(result.semantic_xml);
  }
  return trees;
}

TEST(MeasureEngineConformanceTest, WorkersByteIdenticalPerConfig) {
  // Every single-measure config plus the two production hybrids: 1 and
  // 8 workers must emit byte-identical semantic trees (the engine's
  // determinism contract must hold for any composition, not just the
  // paper default the seed tests pinned).
  std::vector<MeasureConfig> configs;
  for (const std::string& name :
       {"wu-palmer", "lin", "gloss-overlap", "resnik",
        "conceptual-density"}) {
    MeasureConfig single;
    single.entries = {{name, 1.0}};
    configs.push_back(single);
  }
  configs.push_back(MeasureConfig::PaperHybrid());
  configs.push_back(*MeasureConfig::Parse(
      "wu-palmer:0.25,lin:0.25,gloss-overlap:0.25,conceptual-density:0.25"));
  for (const MeasureConfig& config : configs) {
    std::vector<std::string> one = RunEngine(config, 1);
    std::vector<std::string> eight = RunEngine(config, 8);
    ASSERT_EQ(one.size(), eight.size()) << config.ToSpec();
    for (size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i], eight[i])
          << config.ToSpec() << " differs on document " << i
          << " between 1 and 8 workers";
    }
  }
}

}  // namespace
}  // namespace xsdf
