// Tests for the interned front end: the engine-wide label id space
// (cross-document id stability, exact-spelling injectivity), and the
// headline contract — for every node, the streaming tree's labels and
// context vector and the id-based candidates and scores are
// BIT-identical to the string-keyed reference in tests/oracles/.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/token_interner.h"
#include "core/context_vector.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/scores.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "oracles/dom.h"
#include "oracles/dom_tree_builder.h"
#include "oracles/string_pipeline.h"
#include "text/preprocess.h"
#include "wordnet/mini_wordnet.h"
#include "xml/parser.h"

namespace xsdf {
namespace {

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

// ========================== LabelSpace ============================

TEST(LabelSpaceTest, NetworkLabelsKeepInternerIds) {
  core::LabelSpace space(&Network());
  uint32_t id = space.Resolve("star");
  EXPECT_LT(id, space.network_size());
  EXPECT_EQ(Network().interner().Find("star"), id);
  EXPECT_EQ(space.Spelling(id), "star");
  EXPECT_EQ(space.overflow_size(), 0u);
}

TEST(LabelSpaceTest, OutOfVocabularyLabelsOverflowStably) {
  core::LabelSpace space(&Network());
  uint32_t a1 = space.Resolve("zzz_not_a_lemma");
  uint32_t a2 = space.Resolve("zzz_not_a_lemma");
  uint32_t b = space.Resolve("another_unknown");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_GE(a1, static_cast<uint32_t>(space.network_size()));
  EXPECT_EQ(space.Spelling(a1), "zzz_not_a_lemma");
  EXPECT_EQ(space.overflow_size(), 2u);
  EXPECT_EQ(space.Find("zzz_not_a_lemma"), a1);
  EXPECT_EQ(space.Find("never_resolved"), TokenInterner::kNotFound);
}

// Every distinct label and token of the generated example corpus (the
// ten families at `xsdf gen-corpus`'s default seed, plus the Figure 1
// documents), and hand-picked edge cases: the memoized candidate list
// equals the string oracle's enumeration.
TEST(LabelSpaceTest, CandidatesByIdMatchStringEnumeration) {
  core::LabelSpace space(&Network());
  std::vector<std::string> docs;
  for (const auto* generator : datasets::AllDatasets()) {
    for (const auto& doc : generator->Generate(/*seed=*/42)) {
      docs.push_back(doc.xml);
    }
  }
  for (const auto& doc : datasets::Figure1Documents()) {
    docs.push_back(doc.xml);
  }
  std::set<std::string> labels = {
      "star", "movie", "kelly", "first_name",
      "zzz_not_a_lemma",  // a compound with no sense-bearing part
      "star_zzz",         // a compound with one senseless part
      "zzz_star_movie",   // a senseless part before two senseful ones
      "star__movie_",     // empty parts are dropped
      "star_movie_title", // only the first two senseful parts combine
      ""};
  for (const std::string& xml : docs) {
    auto tree = core::BuildTreeStreaming(xml, Network(), xml::ParseOptions{},
                                         /*include_values=*/true, &space);
    ASSERT_TRUE(tree.ok());
    for (xml::NodeId id : tree->ids()) labels.emplace(tree->label(id));
  }
  EXPECT_GT(labels.size(), 150u);
  size_t compounds = 0;
  for (const std::string& label : labels) {
    const uint32_t id = space.Resolve(label);
    const std::vector<core::SenseCandidate> expected =
        oracles::EnumerateCandidates(Network(), label);
    const core::LabelSenses& senses = space.Senses(id);
    EXPECT_EQ(senses.candidates, expected) << "'" << label << "'";
    EXPECT_EQ(senses.has_senses(), !expected.empty()) << "'" << label << "'";
    if (!expected.empty() && expected[0].is_compound()) ++compounds;
  }
  EXPECT_GT(compounds, 0u);
}

// Threads racing the first resolution of the same labels on a fresh
// space all get the one published entry: one address per id, and
// equal candidate lists. The labels cover network ids (a dense atomic
// slot each), out-of-vocabulary ids (the locked overflow map) and
// compounds of both kinds.
TEST(LabelSpaceTest, ConcurrentFirstResolutionPublishesOneEntry) {
  const std::vector<std::string> labels = {
      "star",         "movie",        "title",      "director",
      "first_name",   "kelly",        "zzz_unknown", "qqq",
      "star_zzz",     "zzz_star",     "star_movie", "title_director_year",
      "film_maker",   "actor_role",   "",           "movie_zzz_star"};
  constexpr int kThreads = 8;
  for (int round = 0; round < 4; ++round) {
    core::LabelSpace space(&Network());
    struct Seen {
      std::vector<uint32_t> ids;
      std::vector<const core::LabelSenses*> entries;
      std::vector<std::vector<core::SenseCandidate>> candidates;
    };
    std::vector<Seen> seen(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        // Each thread walks the labels from its own offset, so first
        // sights of one label collide across threads.
        Seen& mine = seen[static_cast<size_t>(t)];
        mine.ids.resize(labels.size());
        mine.entries.resize(labels.size());
        mine.candidates.resize(labels.size());
        for (size_t k = 0; k < labels.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(t + round)) % labels.size();
          mine.ids[i] = space.Resolve(labels[i]);
          const core::LabelSenses& senses = space.Senses(mine.ids[i]);
          mine.entries[i] = &senses;
          mine.candidates[i] = senses.candidates;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t i = 0; i < labels.size(); ++i) {
      const std::vector<core::SenseCandidate> expected =
          oracles::EnumerateCandidates(Network(), labels[i]);
      for (int t = 0; t < kThreads; ++t) {
        const Seen& theirs = seen[static_cast<size_t>(t)];
        EXPECT_EQ(theirs.ids[i], seen[0].ids[i]) << labels[i];
        EXPECT_EQ(theirs.entries[i], seen[0].entries[i])
            << "'" << labels[i] << "' has two published entries";
        EXPECT_EQ(theirs.candidates[i], expected) << labels[i];
      }
      EXPECT_EQ(&space.Senses(seen[0].ids[i]), seen[0].entries[i]);
    }
    EXPECT_EQ(space.resolved_sense_count(), labels.size());
  }
}

TEST(LabelSpaceTest, CrossDocumentInterningIsStable) {
  core::LabelSpace space(&Network());
  auto tree1 = core::BuildTreeStreaming(
      "<films><star>Kelly</star><custom_tag>x</custom_tag></films>",
      Network(), xml::ParseOptions{}, /*include_values=*/true, &space);
  auto tree2 = core::BuildTreeStreaming(
      "<catalog><star>Stewart</star><custom_tag>y</custom_tag></catalog>",
      Network(), xml::ParseOptions{}, /*include_values=*/true, &space);
  ASSERT_TRUE(tree1.ok() && tree2.ok());
  EXPECT_EQ(tree1->label_source(), space.serial());
  EXPECT_EQ(tree2->label_source(), space.serial());
  // Shared vocabulary (in-network and out-of-vocabulary alike) must
  // resolve to the same ids in both documents; distinct labels to
  // distinct ids (exact-spelling injectivity).
  std::unordered_map<std::string, uint32_t> seen;
  for (const auto* tree : {&tree1.value(), &tree2.value()}) {
    for (xml::NodeId node : tree->ids()) {
      uint32_t id = tree->label_id(node);
      ASSERT_NE(id, xml::kNoLabelId);
      auto [it, inserted] = seen.emplace(tree->label(node), id);
      EXPECT_EQ(it->second, id) << "label '" << tree->label(node)
                                << "' got two different ids";
    }
  }
  std::unordered_map<uint32_t, std::string> reverse;
  for (const auto& [label, id] : seen) {
    auto [it, inserted] = reverse.emplace(id, label);
    EXPECT_TRUE(inserted) << "id " << id << " names both '" << it->second
                          << "' and '" << label << "'";
  }
}

TEST(LabelSpaceTest, ConceptLabelIdsJoinTheSameSpace) {
  core::LabelSpace space(&Network());
  const auto& network = Network();
  for (const auto& entry : network.concepts()) {
    uint32_t token_id = network.LabelTokenId(entry.id);
    ASSERT_NE(token_id, TokenInterner::kNotFound) << entry.label();
    EXPECT_EQ(space.Resolve(entry.label()), token_id) << entry.label();
  }
}

// ================ Id pipeline vs the string oracle =================

std::vector<std::string> CorpusXml() {
  std::vector<std::string> xml;
  for (const auto& doc : datasets::Figure1Documents()) xml.push_back(doc.xml);
  const auto& generators = datasets::AllDatasets();
  for (size_t g = 0; g < 2 && g < generators.size(); ++g) {
    for (const auto& doc : generators[g]->Generate(/*seed=*/11)) {
      xml.push_back(doc.xml);
    }
  }
  return xml;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// One node as the string oracle sees it: its candidates and, per
/// candidate, Concept_Score and Context_Score (cosine and Jaccard) over
/// BuildXmlSphere + ContextVector. Lone candidates are never scored.
struct OracleNode {
  std::vector<core::SenseCandidate> candidates;
  std::vector<double> concept_scores;
  std::vector<double> cosine_scores;
  std::vector<double> jaccard_scores;
};

OracleNode ScoreWithOracle(const xml::LabeledTree& tree, xml::NodeId id,
                           const sim::CombinedMeasure& measure, int radius) {
  OracleNode oracle;
  oracle.candidates =
      oracles::EnumerateCandidates(Network(), std::string(tree.label(id)));
  if (oracle.candidates.size() < 2) return oracle;
  const oracles::Sphere sphere = oracles::BuildXmlSphere(tree, id, radius);
  const oracles::ContextVector vector(sphere);
  for (const core::SenseCandidate& candidate : oracle.candidates) {
    oracle.concept_scores.push_back(
        oracles::ConceptScore(Network(), measure, candidate, sphere, vector));
    oracle.cosine_scores.push_back(
        oracles::ContextScore(Network(), candidate, vector, radius,
                              core::VectorSimilarity::kCosine));
    oracle.jaccard_scores.push_back(
        oracles::ContextScore(Network(), candidate, vector, radius,
                              core::VectorSimilarity::kJaccard));
  }
  return oracle;
}

// Every node of the corpus and of one giant document: ExplainNode's
// candidate list is the oracle's, and each candidate's concept and
// context score is bit-equal to the oracle's, under the concept-based
// process and the combined process with cosine and with Jaccard. The
// frequency prior and the argmax run after scoring in shared code, so
// they need no oracle.
TEST(IdPipelineOracleTest, CandidatesAndScoresMatchStringOracle) {
  std::vector<std::string> docs = CorpusXml();
  docs.push_back(datasets::GiantDocuments(1, 256u << 10, 7)[0].xml);
  struct Process {
    const char* name;
    core::DisambiguationProcess process;
    core::VectorSimilarity vector_similarity;
  };
  const Process processes[] = {
      {"concept", core::DisambiguationProcess::kConceptBased,
       core::VectorSimilarity::kCosine},
      {"combined-cosine", core::DisambiguationProcess::kCombined,
       core::VectorSimilarity::kCosine},
      {"combined-jaccard", core::DisambiguationProcess::kCombined,
       core::VectorSimilarity::kJaccard},
  };
  core::LabelSpace space(&Network());
  std::vector<std::unique_ptr<core::Disambiguator>> systems;
  for (const Process& process : processes) {
    core::DisambiguatorOptions options;
    options.process = process.process;
    options.combination_weights = {0.6, 0.4};
    options.vector_similarity = process.vector_similarity;
    options.label_space = &space;
    systems.push_back(
        std::make_unique<core::Disambiguator>(&Network(), options));
  }
  const int radius = systems[0]->options().sphere_radius;
  const sim::CombinedMeasure measure;  // the oracle's own memo
  size_t scored_nodes = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    auto tree = core::BuildTreeStreaming(docs[d], Network(),
                                         xml::ParseOptions{}, true, &space);
    ASSERT_TRUE(tree.ok()) << "doc " << d;
    for (xml::NodeId id = 0; id < static_cast<xml::NodeId>(tree->size());
         ++id) {
      const OracleNode oracle = ScoreWithOracle(*tree, id, measure, radius);
      if (oracle.candidates.size() > 1) ++scored_nodes;
      for (size_t p = 0; p < systems.size(); ++p) {
        const bool combined =
            processes[p].process == core::DisambiguationProcess::kCombined;
        const std::vector<double>& context_scores =
            processes[p].vector_similarity == core::VectorSimilarity::kJaccard
                ? oracle.jaccard_scores
                : oracle.cosine_scores;
        const std::string context = std::string(processes[p].name) +
                                    " doc " + std::to_string(d) + " node " +
                                    std::to_string(id);
        auto audit = systems[p]->ExplainNode(*tree, id);
        ASSERT_EQ(audit.ok(), !oracle.candidates.empty()) << context;
        if (!audit.ok()) continue;
        ASSERT_EQ(audit->candidates.size(), oracle.candidates.size())
            << context;
        for (size_t i = 0; i < oracle.candidates.size(); ++i) {
          const core::CandidateAudit& candidate = audit->candidates[i];
          ASSERT_EQ(candidate.sense, oracle.candidates[i]) << context;
          if (oracle.candidates.size() < 2) continue;
          ASSERT_EQ(Bits(candidate.concept_score),
                    Bits(oracle.concept_scores[i]))
              << context << " candidate " << i;
          ASSERT_EQ(Bits(candidate.context_score),
                    Bits(combined ? context_scores[i] : 0.0))
              << context << " candidate " << i;
        }
      }
    }
  }
  EXPECT_GT(scored_nodes, 1000u);
}

// ============ Front end vs the per-node pre-processing =============

/// The DOM walk labelled by the per-node pre-processing, without its
/// memo tables, each label interned into a build-local TokenInterner
/// instead of a LabelSpace.
Result<xml::LabeledTree> BuildTreePerNode(const oracles::Document& doc) {
  const text::LexiconProbe probe = [](const std::string& lemma) {
    return Network().Contains(lemma);
  };
  TokenInterner interner;
  core::ResolvedLabel tag;
  std::vector<core::ResolvedLabel> tokens;
  return oracles::BuildTreeViaDom(
      doc, /*include_values=*/true, /*label_source=*/0,
      [&](std::string_view raw) -> const core::ResolvedLabel& {
        tag.label = text::PreprocessTagName(raw, probe).label;
        tag.id = interner.Intern(tag.label);
        return tag;
      },
      [&](std::string_view value) -> const std::vector<core::ResolvedLabel>& {
        tokens.clear();
        for (std::string& token : text::PreprocessTextValue(value, probe)) {
          core::ResolvedLabel& resolved = tokens.emplace_back();
          resolved.label = std::move(token);
          if (!resolved.label.empty()) {
            resolved.id = interner.Intern(resolved.label);
          }
        }
        return tokens;
      });
}

// Every node of the Figure 1 documents and the ten dataset families at
// seed 11: the streaming tree's labels equal the per-node reference's
// and spell their ids, and its radius-2 IdContextVector equals the
// string ContextVector over the reference tree — the same dimensions,
// spelled the same and in the same order, the same sphere size and
// bit-equal weights. The counts pin the coverage.
TEST(FrontEndOracleTest, LabelsAndContextVectorsMatchPerNodeReference) {
  std::vector<std::string> docs;
  for (const auto& doc : datasets::Figure1Documents()) docs.push_back(doc.xml);
  for (const auto* generator : datasets::AllDatasets()) {
    for (const auto& doc : generator->Generate(/*seed=*/11)) {
      docs.push_back(doc.xml);
    }
  }
  core::LabelSpace space(&Network());
  const int radius = core::DisambiguatorOptions{}.sphere_radius;
  size_t nodes = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    auto doc = oracles::ParseDom(docs[d]);
    ASSERT_TRUE(doc.ok()) << "doc " << d;
    auto reference = BuildTreePerNode(*doc);
    auto tree = core::BuildTreeStreaming(docs[d], Network(),
                                         xml::ParseOptions{}, true, &space);
    ASSERT_TRUE(reference.ok() && tree.ok()) << "doc " << d;
    ASSERT_EQ(tree->size(), reference->size()) << "doc " << d;
    for (xml::NodeId id : tree->ids()) {
      const std::string context =
          "doc " + std::to_string(d) + " node " + std::to_string(id);
      ASSERT_EQ(tree->label(id), reference->label(id)) << context;
      ASSERT_EQ(space.Spelling(tree->label_id(id)), tree->label(id))
          << context;
      const oracles::ContextVector want(
          oracles::BuildXmlSphere(*reference, id, radius));
      const core::IdContextVector got(
          core::BuildXmlIdSphere(*tree, id, radius));
      ASSERT_EQ(got.dimension_count(), want.dimension_count()) << context;
      ASSERT_EQ(got.sphere_size(), want.sphere_size()) << context;
      for (size_t k = 0; k < got.dimension_count(); ++k) {
        const auto& [label, weight] = want.weights()[k];
        ASSERT_EQ(space.Spelling(got.ids()[k]), label)
            << context << " dim " << k;
        ASSERT_EQ(Bits(got.weights()[k]), Bits(weight))
            << context << " dim " << k;
      }
      ++nodes;
    }
  }
  EXPECT_EQ(docs.size(), 62u);
  EXPECT_EQ(nodes, 4502u);
}

}  // namespace
}  // namespace xsdf
