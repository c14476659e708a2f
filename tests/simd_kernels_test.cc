// Scalar-vs-SIMD equivalence tests for the dispatched id kernels
// (common/simd.h) and everything built on them: every kernel must
// return exactly its scalar reference's result at every dispatch
// level, and every consumer (the measures, the combined measure,
// IdContextVector comparisons, IdContextScore) must produce
// bit-identical doubles at every level — the vector comparisons equal
// to the per-id lookup reference in tests/oracles/ at every level,
// scalar included, on narrow spheres and on spheres wide enough for
// the open-addressing index. Also covers the engine's thread
// auto-detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "core/context_vector.h"
#include "core/label_space.h"
#include "core/scores.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "oracles/id_vector_reference.h"
#include "runtime/engine.h"
#include "sim/combined.h"
#include "sim/gloss_overlap.h"
#include "sim/lin.h"
#include "sim/resnik.h"
#include "sim/wu_palmer.h"
#include "wordnet/mini_wordnet.h"
#include "wordnet/semantic_network.h"
#include "xml/parser.h"

namespace xsdf {
namespace {

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

/// Restores the dispatch level when a test scope ends, whatever the
/// test forced in between.
struct LevelGuard {
  ~LevelGuard() { simd::ForceLevel(simd::DetectedLevel()); }
};

/// Every level this CPU + build can actually run (always includes
/// scalar). ForceLevel clamps upward requests, so running only the
/// supported set keeps the tests meaningful on any machine.
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

/// A strictly increasing random id set of `len` elements drawn from a
/// range ~3x the length, so intersections are common but not total.
std::vector<uint32_t> StrictSet(std::mt19937& rng, size_t len) {
  std::set<uint32_t> s;
  std::uniform_int_distribution<uint32_t> pick(
      0, static_cast<uint32_t>(3 * len + 8));
  while (s.size() < len) s.insert(pick(rng));
  return {s.begin(), s.end()};
}

/// Whether two strictly increasing sets share an element, by a plain
/// two-pointer merge independent of the production scalar path.
bool ReferenceShares(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

void CheckKernelsOnPair(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b) {
  const bool want = ReferenceShares(a, b);
  for (simd::Level level : SupportedLevels()) {
    simd::ForceLevel(level);
    EXPECT_EQ(simd::SortedIntersectNonEmptyU32(a.data(), a.size(),
                                               b.data(), b.size()),
              want)
        << simd::LevelName(level);
  }
}

TEST(SimdDispatchTest, DetectedLevelRunsAndNamesAreStable) {
  LevelGuard guard;
  EXPECT_GE(simd::DetectedLevel(), simd::Level::kScalar);
  EXPECT_LE(simd::ActiveLevel(), simd::DetectedLevel());
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kSse2), "sse2");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  // ForceLevel clamps upward requests to the detected level.
  simd::ForceLevel(simd::Level::kAvx2);
  EXPECT_LE(simd::ActiveLevel(), simd::DetectedLevel());
  simd::ForceLevel(simd::Level::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
}

TEST(SimdKernelTest, FindU32MatchesLinearScanAtEveryLevel) {
  LevelGuard guard;
  std::mt19937 rng(20150324);
  for (size_t len = 0; len <= 40; ++len) {
    std::vector<uint32_t> data;
    data.reserve(len);
    std::uniform_int_distribution<uint32_t> pick(0, 30);
    for (size_t i = 0; i < len; ++i) data.push_back(pick(rng));
    for (uint32_t value = 0; value <= 31; ++value) {
      size_t want = len;
      for (size_t i = 0; i < len; ++i) {
        if (data[i] == value) {
          want = i;
          break;
        }
      }
      for (simd::Level level : SupportedLevels()) {
        simd::ForceLevel(level);
        EXPECT_EQ(simd::FindU32(data.data(), len, value), want)
            << simd::LevelName(level) << " len " << len << " value "
            << value;
      }
    }
  }
}

TEST(SimdKernelTest, IntersectionsMatchReferenceOnRandomSets) {
  LevelGuard guard;
  std::mt19937 rng(20150324);
  std::uniform_int_distribution<size_t> len_pick(0, 48);
  for (int round = 0; round < 400; ++round) {
    CheckKernelsOnPair(StrictSet(rng, len_pick(rng)),
                       StrictSet(rng, len_pick(rng)));
  }
}

TEST(SimdKernelTest, EdgeShapesEmptySingleAndRaggedTails) {
  LevelGuard guard;
  // Empty inputs on either or both sides.
  CheckKernelsOnPair({}, {});
  CheckKernelsOnPair({}, {1, 5, 9});
  CheckKernelsOnPair({3}, {});
  // Single-element sets, hit and miss.
  CheckKernelsOnPair({7}, {7});
  CheckKernelsOnPair({7}, {8});
  // Every length pair around the 4- and 8-lane widths, with the only
  // match planted at the very last element of both sides — the match
  // must be found by the scalar tail at every ragged remainder.
  for (size_t la = 1; la <= 19; ++la) {
    for (size_t lb = 1; lb <= 19; ++lb) {
      std::vector<uint32_t> a;
      std::vector<uint32_t> b;
      for (size_t i = 0; i + 1 < la; ++i) {
        a.push_back(static_cast<uint32_t>(2 * i));  // evens
      }
      for (size_t i = 0; i + 1 < lb; ++i) {
        b.push_back(static_cast<uint32_t>(2 * i + 1));  // odds
      }
      const uint32_t sentinel = static_cast<uint32_t>(2 * (la + lb) + 2);
      a.push_back(sentinel);
      b.push_back(sentinel);
      CheckKernelsOnPair(a, b);
    }
  }
}

/// Runs `compute` once per supported level and expects every level to
/// reproduce the scalar level's doubles bit for bit.
template <typename Compute>
void ExpectBitIdenticalAcrossLevels(Compute&& compute,
                                    const char* what) {
  LevelGuard guard;
  simd::ForceLevel(simd::Level::kScalar);
  const std::vector<double> want = compute();
  for (simd::Level level : SupportedLevels()) {
    if (level == simd::Level::kScalar) continue;
    simd::ForceLevel(level);
    const std::vector<double> got = compute();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(Bits(got[i]), Bits(want[i]))
          << what << " diverged at " << simd::LevelName(level)
          << ", sample " << i;
    }
  }
}

/// Runs `compute` once per supported level, scalar included, and
/// expects every level to reproduce `want` — a reference computed
/// independently of the dispatch level — bit for bit.
template <typename Compute>
void ExpectBitIdenticalToReference(Compute&& compute,
                                   const std::vector<double>& want,
                                   const char* what) {
  LevelGuard guard;
  for (simd::Level level : SupportedLevels()) {
    simd::ForceLevel(level);
    const std::vector<double> got = compute();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(Bits(got[i]), Bits(want[i]))
          << what << " diverged from the reference at "
          << simd::LevelName(level) << ", sample " << i;
    }
  }
}

/// Deterministic sample of concept pairs covering the whole id range.
std::vector<std::pair<ConceptId, ConceptId>> SamplePairs(size_t count) {
  std::mt19937 rng(20150324);
  std::uniform_int_distribution<int> pick(
      0, static_cast<int>(Network().size()) - 1);
  std::vector<std::pair<ConceptId, ConceptId>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(pick(rng), pick(rng));
  }
  return pairs;
}

TEST(SimdEquivalenceTest, EveryMeasureIsBitIdenticalAcrossLevels) {
  const SemanticNetwork& network = Network();
  const auto pairs = SamplePairs(300);
  auto sweep = [&](const sim::SimilarityMeasure& measure) {
    return [&network, &pairs, &measure] {
      std::vector<double> values;
      values.reserve(pairs.size());
      for (auto [a, b] : pairs) {
        values.push_back(measure.Similarity(network, a, b));
      }
      return values;
    };
  };
  sim::WuPalmerMeasure wu_palmer;
  sim::ResnikMeasure resnik;
  sim::LinMeasure lin;
  sim::GlossOverlapMeasure gloss;
  ExpectBitIdenticalAcrossLevels(sweep(wu_palmer), "wu_palmer");
  ExpectBitIdenticalAcrossLevels(sweep(resnik), "resnik");
  ExpectBitIdenticalAcrossLevels(sweep(lin), "lin");
  ExpectBitIdenticalAcrossLevels(sweep(gloss), "gloss_overlap");
  // Combined gets a fresh measure per sweep so its memo cannot leak
  // values across levels.
  ExpectBitIdenticalAcrossLevels(
      [&network, &pairs] {
        sim::CombinedMeasure combined;
        std::vector<double> values;
        values.reserve(pairs.size());
        for (auto [a, b] : pairs) {
          values.push_back(combined.Similarity(network, a, b));
        }
        return values;
      },
      "combined");
}

TEST(SimdEquivalenceTest, ContextVectorComparisonsAcrossLevels) {
  const SemanticNetwork& network = Network();
  std::mt19937 rng(20150324);
  std::uniform_int_distribution<int> pick(
      0, static_cast<int>(network.size()) - 1);
  std::vector<std::pair<ConceptId, ConceptId>> centers;
  for (int i = 0; i < 60; ++i) centers.emplace_back(pick(rng), pick(rng));
  // The per-id lookup reference once; then, at every level, the
  // vectors rebuilt and compared by the merge.
  std::vector<double> want;
  for (auto [ca, cb] : centers) {
    const core::IdContextVector va(core::BuildConceptIdSphere(network, ca, 2));
    const core::IdContextVector vb(core::BuildConceptIdSphere(network, cb, 2));
    want.push_back(oracles::LookupCosine(va, vb));
    want.push_back(oracles::LookupJaccard(va, vb));
    want.push_back(oracles::LookupJaccard(vb, va));
  }
  ExpectBitIdenticalToReference(
      [&] {
        std::vector<double> values;
        core::IdContextVector va;
        core::IdContextVector vb;
        for (auto [ca, cb] : centers) {
          va.Assign(core::BuildConceptIdSphere(network, ca, 2));
          vb.Assign(core::BuildConceptIdSphere(network, cb, 2));
          values.push_back(va.Cosine(vb));
          values.push_back(va.Jaccard(vb));
          values.push_back(vb.Jaccard(va));
        }
        return values;
      },
      want, "context_vector");
}

// Spheres of more than 96 members index their labels in an
// open-addressing table instead of scanning them, and the comparisons
// look labels up through it. A wide block of a giant document puts
// hundreds of siblings in each child's radius-2 sphere; every such
// node with senses is compared with each candidate's concept vector,
// both ways round, against the oracle's own lookups.
TEST(SimdEquivalenceTest, WideSphereComparisonsAcrossLevels) {
  const SemanticNetwork& network = Network();
  core::LabelSpace labels(&network);
  const datasets::GeneratedDocument giant =
      datasets::GiantDocuments(1, 256u << 10, 1)[0];
  auto tree = core::BuildTreeStreaming(giant.xml, network,
                                       xml::ParseOptions{}, true, &labels);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  struct Pair {
    core::IdSphere xml_sphere;
    core::IdSphere concept_sphere;
  };
  std::vector<Pair> pairs;
  std::vector<double> want;
  for (xml::NodeId id : tree->ids()) {
    if (pairs.size() >= 600) break;
    const core::LabelSenses& senses = labels.Senses(tree->label_id(id));
    if (senses.candidates.empty()) continue;
    core::IdSphere sphere = core::BuildXmlIdSphere(*tree, id, 2);
    if (sphere.size() <= 96) continue;
    const core::IdContextVector x(sphere);
    for (const core::SenseCandidate& c : senses.candidates) {
      core::IdSphere concept_sphere =
          c.is_compound() ? core::BuildCompoundConceptIdSphere(
                                network, c.primary, c.secondary, 2)
                          : core::BuildConceptIdSphere(network, c.primary, 2);
      const core::IdContextVector cv(concept_sphere);
      want.push_back(oracles::LookupCosine(x, cv));
      want.push_back(oracles::LookupCosine(cv, x));
      want.push_back(oracles::LookupJaccard(x, cv));
      want.push_back(oracles::LookupJaccard(cv, x));
      pairs.push_back({sphere, std::move(concept_sphere)});
    }
  }
  ASSERT_GE(pairs.size(), 100u);
  size_t shared = 0;
  for (size_t k = 0; k < want.size(); k += 4) shared += want[k] > 0.0;
  EXPECT_GT(shared, 0u) << "no wide sphere shares a label with a concept";
  ExpectBitIdenticalToReference(
      [&] {
        std::vector<double> values;
        core::IdContextVector x;
        core::IdContextVector cv;
        for (const Pair& pair : pairs) {
          x.Assign(pair.xml_sphere);
          cv.Assign(pair.concept_sphere);
          values.push_back(x.Cosine(cv));
          values.push_back(cv.Cosine(x));
          values.push_back(x.Jaccard(cv));
          values.push_back(cv.Jaccard(x));
        }
        return values;
      },
      want, "wide_sphere");
}

TEST(SimdEquivalenceTest, IdContextScoreAcrossLevels) {
  const SemanticNetwork& network = Network();
  std::mt19937 rng(20150324);
  std::uniform_int_distribution<int> pick(
      0, static_cast<int>(network.size()) - 1);
  std::vector<core::SenseCandidate> candidates;
  std::vector<ConceptId> contexts;
  for (int i = 0; i < 30; ++i) {
    core::SenseCandidate candidate;
    candidate.primary = pick(rng);
    if (i % 3 == 0) candidate.secondary = pick(rng);  // compound
    candidates.push_back(candidate);
    contexts.push_back(pick(rng));
  }
  ExpectBitIdenticalAcrossLevels(
      [&] {
        std::vector<double> values;
        core::IdContextVector xml_vector;
        for (size_t i = 0; i < candidates.size(); ++i) {
          xml_vector.Assign(
              core::BuildConceptIdSphere(network, contexts[i], 2));
          values.push_back(core::IdContextScore(
              network, candidates[i], xml_vector, 2,
              core::VectorSimilarity::kCosine));
          values.push_back(core::IdContextScore(
              network, candidates[i], xml_vector, 2,
              core::VectorSimilarity::kJaccard));
        }
        return values;
      },
      "id_context_score");
}

TEST(SimdEquivalenceTest, OovOnlySpheresCompareCleanly) {
  // Spheres made purely of overflow (OOV) label ids never intersect a
  // concept vector; both comparisons must agree with the lookup
  // reference and return finite values at every level.
  const SemanticNetwork& network = Network();
  core::IdSphere oov;
  oov.radius = 2;
  const uint32_t base = 1u << 20;  // far beyond any interned id
  oov.push_back(base, 0);
  for (int i = 1; i <= 12; ++i) oov.push_back(base + 2 * i, 1 + (i % 2));
  const core::IdContextVector reference_oov(oov);
  const core::IdContextVector reference_concept(
      core::BuildConceptIdSphere(network, 0, 2));
  const core::IdContextVector reference_empty;
  const std::vector<double> want = {
      oracles::LookupCosine(reference_oov, reference_concept),
      oracles::LookupJaccard(reference_oov, reference_concept),
      oracles::LookupJaccard(reference_concept, reference_oov),
      oracles::LookupCosine(reference_oov, reference_empty),
      oracles::LookupJaccard(reference_empty, reference_oov),
  };
  for (double value : want) EXPECT_TRUE(std::isfinite(value));
  ExpectBitIdenticalToReference(
      [&] {
        core::IdContextVector oov_vector;
        oov_vector.Assign(oov);
        core::IdContextVector concept_vector;
        concept_vector.Assign(core::BuildConceptIdSphere(network, 0, 2));
        core::IdContextVector empty_vector;
        return std::vector<double>{
            oov_vector.Cosine(concept_vector),
            oov_vector.Jaccard(concept_vector),
            concept_vector.Jaccard(oov_vector),
            oov_vector.Cosine(empty_vector),
            empty_vector.Jaccard(oov_vector),
        };
      },
      want, "oov_sphere");
}

TEST(EngineThreadsTest, ZeroAutoDetectsHardwareConcurrency) {
  const SemanticNetwork& network = Network();
  runtime::EngineOptions options;
  options.threads = 0;
  runtime::DisambiguationEngine engine(&network, options);
  runtime::EngineStats stats = engine.stats();
  EXPECT_GE(stats.worker_threads, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(stats.worker_threads, static_cast<int>(hw));
  }
  // The auto-sized pool must actually process work.
  runtime::DocumentJob job;
  job.name = "doc";
  job.xml = "<movie><actor>star</actor></movie>";
  std::vector<runtime::DocumentResult> results = engine.RunBatch({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
}

}  // namespace
}  // namespace xsdf
