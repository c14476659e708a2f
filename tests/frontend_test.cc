// Tests for the interned front end: the engine-wide label id space
// (cross-document id stability, exact-spelling injectivity), and the
// headline contract — for every node, the id-based candidates and
// sphere/vector scores are BIT-identical to the string-keyed reference
// in tests/oracles/, on trees with and without label ids.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/scores.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "oracles/string_pipeline.h"
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

TEST(LabelSpaceTest, CandidatesByIdMatchStringEnumeration) {
  core::LabelSpace space(&Network());
  for (const char* label :
       {"star", "movie", "kelly", "first_name", "zzz_not_a_lemma", ""}) {
    uint32_t id = space.Resolve(label);
    EXPECT_EQ(core::EnumerateCandidatesById(space, id),
              oracles::EnumerateCandidates(Network(), label))
        << label;
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

}  // namespace
}  // namespace xsdf
