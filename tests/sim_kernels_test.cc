// Equivalence tests for the interned id-based similarity kernels: the
// precomputed tables (token interner, gloss token sequences/bags,
// ancestor arrays, IC table) must reproduce the legacy string-path
// scores of tests/oracles/ *bit for bit* on randomized concept pairs,
// the common-ancestor merge must visit exactly a reference merge's
// matches, and the batch
// runtime built on top must stay byte-identical across worker counts.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/token_interner.h"
#include "oracles/graph_walks.h"
#include "oracles/legacy_similarity.h"
#include "runtime/engine.h"
#include "sim/combined.h"
#include "sim/gloss_overlap.h"
#include "sim/kernels.h"
#include "sim/lin.h"
#include "sim/resnik.h"
#include "sim/wu_palmer.h"
#include "snapshot/snapshot.h"
#include "wordnet/mini_wordnet.h"
#include "wordnet/semantic_network.h"

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

/// Network() restored from its snapshot bytes: the kernel tables,
/// ancestor rows included, are read in place from the buffer, not
/// built.
const SemanticNetwork& RestoredNetwork() {
  static const std::shared_ptr<const SemanticNetwork>* restored = [] {
    auto bytes = snapshot::WriteNetworkSnapshot(Network());
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto aligned =
        std::make_shared<std::vector<uint64_t>>((bytes->size() + 7) / 8);
    std::memcpy(aligned->data(), bytes->data(), bytes->size());
    auto loaded = snapshot::LoadNetworkSnapshotFromBuffer(
        std::shared_ptr<const void>(aligned, aligned->data()),
        reinterpret_cast<const uint8_t*>(aligned->data()), bytes->size());
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return new std::shared_ptr<const SemanticNetwork>(
        std::move(loaded).value());
  }();
  return **restored;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Deterministic sample of concept pairs covering the whole id range.
std::vector<std::pair<ConceptId, ConceptId>> SamplePairs(size_t count) {
  std::mt19937 rng(20150324);  // EDBT'15 vintage, fixed across runs
  std::uniform_int_distribution<int> pick(
      0, static_cast<int>(Network().size()) - 1);
  std::vector<std::pair<ConceptId, ConceptId>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(pick(rng), pick(rng));
  }
  return pairs;
}

/// An id-sorted ancestor row of `len` distinct ids drawn from a range
/// ~3x the length, so rows share some ids but not all; each distance
/// is derived from its id, so a visit can be checked for its payload.
std::vector<wordnet::AncestorEntry> RandomRow(std::mt19937& rng,
                                              size_t len) {
  std::set<ConceptId> ids;
  std::uniform_int_distribution<ConceptId> pick(
      0, static_cast<ConceptId>(3 * len + 8));
  while (ids.size() < len) ids.insert(pick(rng));
  std::vector<wordnet::AncestorEntry> row;
  for (ConceptId id : ids) row.push_back({id, id % 7 + 1});
  return row;
}

/// The positions of the common ids of two id-sorted rows, by a plain
/// two-pointer merge independent of the production kernel.
std::vector<std::pair<size_t, size_t>> ReferenceCommon(
    std::span<const wordnet::AncestorEntry> a,
    std::span<const wordnet::AncestorEntry> b) {
  std::vector<std::pair<size_t, size_t>> matches;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].id < b[j].id) {
      ++i;
    } else if (b[j].id < a[i].id) {
      ++j;
    } else {
      matches.emplace_back(i++, j++);
    }
  }
  return matches;
}

/// ForEachCommonAncestor must visit the reference's matches, in order,
/// handing over the rows' own entries.
void CheckCommonAncestors(const std::vector<wordnet::AncestorEntry>& a,
                          const std::vector<wordnet::AncestorEntry>& b) {
  const auto want = ReferenceCommon(a, b);
  std::vector<std::pair<const wordnet::AncestorEntry*,
                        const wordnet::AncestorEntry*>>
      got;
  sim::ForEachCommonAncestor(
      a, b,
      [&got](const wordnet::AncestorEntry& ea,
             const wordnet::AncestorEntry& eb) {
        got.emplace_back(&ea, &eb);
      });
  ASSERT_EQ(got.size(), want.size())
      << "rows of " << a.size() << " and " << b.size();
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].first, &a[want[k].first]) << "match " << k;
    EXPECT_EQ(got[k].second, &b[want[k].second]) << "match " << k;
  }
}

TEST(CommonAncestorTest, MatchesReferenceOnRandomRows) {
  std::mt19937 rng(20150324);
  std::uniform_int_distribution<size_t> len_pick(0, 48);
  for (int round = 0; round < 400; ++round) {
    CheckCommonAncestors(RandomRow(rng, len_pick(rng)),
                         RandomRow(rng, len_pick(rng)));
  }
}

TEST(CommonAncestorTest, EdgeShapesEmptySingleAndLastOnly) {
  auto row = [](std::vector<ConceptId> ids) {
    std::vector<wordnet::AncestorEntry> out;
    for (ConceptId id : ids) out.push_back({id, id % 7 + 1});
    return out;
  };
  // Empty rows on either or both sides.
  CheckCommonAncestors({}, {});
  CheckCommonAncestors({}, row({1, 5, 9}));
  CheckCommonAncestors(row({3}), {});
  // Single-entry rows (a root's own row), hit and miss.
  CheckCommonAncestors(row({7}), row({7}));
  CheckCommonAncestors(row({7}), row({8}));
  // Every length pair up to 19, with the only match at the last entry
  // of both rows.
  for (ConceptId la = 1; la <= 19; ++la) {
    for (ConceptId lb = 1; lb <= 19; ++lb) {
      std::vector<ConceptId> a;
      std::vector<ConceptId> b;
      for (ConceptId i = 0; i + 1 < la; ++i) a.push_back(2 * i);  // evens
      for (ConceptId i = 0; i + 1 < lb; ++i) b.push_back(2 * i + 1);
      a.push_back(2 * (la + lb) + 2);
      b.push_back(2 * (la + lb) + 2);
      CheckCommonAncestors(row(a), row(b));
    }
  }
}

TEST(TokenInternerTest, InternAssignsContiguousIdsAndDeduplicates) {
  TokenInterner interner;
  EXPECT_EQ(interner.Intern("alpha"), 0u);
  EXPECT_EQ(interner.Intern("beta"), 1u);
  EXPECT_EQ(interner.Intern("alpha"), 0u);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.Spelling(0), "alpha");
  EXPECT_EQ(interner.Spelling(1), "beta");
}

TEST(TokenInternerTest, FindIsHeterogeneousAndNonMutating) {
  TokenInterner interner;
  interner.Intern("gamma");
  std::string_view view = "gamma";
  EXPECT_EQ(interner.Find(view), 0u);
  EXPECT_EQ(interner.Find("absent"), TokenInterner::kNotFound);
  EXPECT_EQ(interner.size(), 1u);  // Find never interns
}

TEST(SemanticNetworkTest, SensesNormalizesWithoutAllocatingPerQuery) {
  const SemanticNetwork& network = Network();
  const std::vector<ConceptId>& lower = network.Senses("actor");
  ASSERT_FALSE(lower.empty());
  // Case folding and space/hyphen -> underscore happen in a reused
  // buffer; all variants resolve to the same sense list object.
  EXPECT_EQ(&network.Senses("Actor"), &lower);
  EXPECT_EQ(&network.Senses("ACTOR"), &lower);
  EXPECT_TRUE(network.Senses("no such lemma anywhere").empty());
}

TEST(SemanticNetworkTest, AncestorTableMatchesAncestorDistances) {
  const SemanticNetwork& network = Network();
  for (ConceptId id = 0; id < static_cast<ConceptId>(network.size());
       ++id) {
    auto legacy = network.AncestorDistances(id);
    auto table = network.Ancestors(id);
    ASSERT_EQ(table.size(), legacy.size()) << "concept " << id;
    ConceptId previous = wordnet::kInvalidConcept;
    for (const wordnet::AncestorEntry& entry : table) {
      EXPECT_GT(entry.id, previous) << "table not sorted, concept " << id;
      previous = entry.id;
      auto it = legacy.find(entry.id);
      ASSERT_NE(it, legacy.end()) << "concept " << id;
      EXPECT_EQ(entry.distance, it->second) << "concept " << id;
    }
  }
}

TEST(SemanticNetworkTest, GlossTokensSpellOutTheLegacyExtendedGloss) {
  const SemanticNetwork& network = Network();
  for (ConceptId id = 0; id < static_cast<ConceptId>(network.size());
       ++id) {
    std::vector<std::string> legacy = oracles::ExtendedGloss(network, id);
    auto tokens = network.GlossTokens(id);
    ASSERT_EQ(tokens.size(), legacy.size()) << "concept " << id;
    for (size_t i = 0; i < tokens.size(); ++i) {
      EXPECT_EQ(network.interner().Spelling(tokens[i]), legacy[i])
          << "concept " << id << " token " << i;
    }
    auto bag = network.GlossTokenBag(id);
    for (size_t i = 1; i < bag.size(); ++i) {
      EXPECT_LT(bag[i - 1], bag[i]) << "bag not sorted+unique, " << id;
    }
  }
}

TEST(KernelEquivalenceTest, WuPalmerIsBitIdenticalToLegacy) {
  const SemanticNetwork& network = Network();
  sim::WuPalmerMeasure measure;
  for (auto [a, b] : SamplePairs(400)) {
    EXPECT_EQ(Bits(measure.Similarity(network, a, b)),
              Bits(oracles::LegacyWuPalmer(network, a, b)))
        << "pair (" << a << ", " << b << ")";
  }
}

TEST(KernelEquivalenceTest, ResnikIsBitIdenticalToLegacy) {
  const SemanticNetwork& network = Network();
  sim::ResnikMeasure measure;
  for (auto [a, b] : SamplePairs(400)) {
    EXPECT_EQ(Bits(measure.Similarity(network, a, b)),
              Bits(oracles::LegacyResnik(network, a, b)))
        << "pair (" << a << ", " << b << ")";
  }
}

TEST(KernelEquivalenceTest, LinIsBitIdenticalToLegacy) {
  const SemanticNetwork& network = Network();
  sim::LinMeasure measure;
  for (auto [a, b] : SamplePairs(400)) {
    EXPECT_EQ(Bits(measure.Similarity(network, a, b)),
              Bits(oracles::LegacyLin(network, a, b)))
        << "pair (" << a << ", " << b << ")";
  }
}

TEST(KernelEquivalenceTest, GlossOverlapIsBitIdenticalToLegacy) {
  const SemanticNetwork& network = Network();
  sim::GlossOverlapMeasure measure;
  for (auto [a, b] : SamplePairs(400)) {
    EXPECT_EQ(
        Bits(measure.Similarity(network, a, b)),
        Bits(oracles::LegacyGlossOverlap(network, a, b)))
        << "pair (" << a << ", " << b << ")";
  }
}

// The path length behind VSD's Leacock-Chodorow term is read off the
// ancestor rows; it must equal the two-walk oracle on sampled pairs,
// on every concept with itself and on pairs of distinct taxonomy
// roots, which share no ancestor — on a built network and on one
// restored from a snapshot.
TEST(KernelEquivalenceTest, HypernymPathLengthMatchesGraphWalk) {
  std::vector<std::pair<ConceptId, ConceptId>> pairs = SamplePairs(10000);
  std::vector<ConceptId> roots;
  for (ConceptId id = 0; id < static_cast<ConceptId>(Network().size());
       ++id) {
    pairs.emplace_back(id, id);
    if (Network().Hypernyms(id).empty()) roots.push_back(id);
  }
  ASSERT_GE(roots.size(), 2u);
  for (ConceptId a : roots) {
    for (ConceptId b : roots) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  for (const SemanticNetwork* network : {&Network(), &RestoredNetwork()}) {
    ASSERT_EQ(network->size(), Network().size());
    size_t unrelated = 0;
    size_t identical = 0;
    for (auto [a, b] : pairs) {
      const int want = oracles::HypernymPathLength(*network, a, b);
      ASSERT_EQ(sim::HypernymPathLength(*network, a, b), want)
          << "pair (" << a << ", " << b << ")"
          << (network == &Network() ? "" : " restored");
      unrelated += want < 0 ? 1 : 0;
      identical += a == b ? 1 : 0;
    }
    EXPECT_GE(unrelated, roots.size() * (roots.size() - 1));
    EXPECT_GE(identical, Network().size());
  }
}

TEST(KernelEquivalenceTest, CombinedIsBitIdenticalToLegacySum) {
  const SemanticNetwork& network = Network();
  sim::CombinedMeasure measure;  // equal thirds, the paper default
  const double third = 1.0 / 3.0;
  for (auto [a, b] : SamplePairs(400)) {
    // Same component order (edge, node, gloss) as CombinedMeasure.
    double legacy = third * oracles::LegacyWuPalmer(network, a, b) +
                    third * oracles::LegacyLin(network, a, b) +
                    third * oracles::LegacyGlossOverlap(network, a, b);
    if (legacy > 1.0) legacy = 1.0;
    EXPECT_EQ(Bits(measure.Similarity(network, a, b)), Bits(legacy))
        << "pair (" << a << ", " << b << ")";
  }
}

TEST(BatchDeterminismTest, EightWorkersMatchOneWorkerByteForByte) {
  const SemanticNetwork& network = Network();
  std::vector<runtime::DocumentJob> jobs;
  for (int i = 0; i < 12; ++i) {
    runtime::DocumentJob job;
    job.name = "doc" + std::to_string(i);
    job.xml =
        "<movie><actor>star</actor><director>film maker</director>"
        "<review>the play was a hit with critics</review></movie>";
    jobs.push_back(job);
  }
  auto run = [&](int threads) {
    runtime::EngineOptions options;
    options.threads = threads;
    runtime::DisambiguationEngine engine(&network, options);
    return engine.RunBatch(jobs);
  };
  std::vector<runtime::DocumentResult> one = run(1);
  std::vector<runtime::DocumentResult> eight = run(8);
  ASSERT_EQ(one.size(), eight.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(one[i].ok);
    EXPECT_EQ(one[i].semantic_xml, eight[i].semantic_xml) << "doc " << i;
  }
}

}  // namespace
}  // namespace xsdf
