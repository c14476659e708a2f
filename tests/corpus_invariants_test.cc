// Corpus-wide property tests: invariants that must hold for every
// document of the generated evaluation corpus, every assignment the
// disambiguator makes, and every context vector it builds. These are
// the repository's broadest safety net — they exercise the full
// pipeline on all 60 documents rather than hand-picked fixtures (and,
// for id-value independence, on the tests/prop corpus too).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/context_vector.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "eval/experiment.h"
#include "oracles/dom.h"
#include "oracles/graph_walks.h"
#include "oracles/string_pipeline.h"
#include "prop/generators.h"
#include "wordnet/mini_wordnet.h"
#include "xml/parser.h"

namespace xsdf {
namespace {

class CorpusInvariantsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto network = wordnet::BuildMiniWordNet();
    ASSERT_TRUE(network.ok());
    network_ = new wordnet::SemanticNetwork(std::move(network).value());
    labels_ = new core::LabelSpace(network_);
    auto corpus = eval::BuildCorpus(*network_, labels_);
    ASSERT_TRUE(corpus.ok());
    corpus_ = new std::vector<eval::CorpusDocument>(
        std::move(corpus).value());
  }
  static const wordnet::SemanticNetwork& network() { return *network_; }
  static const std::vector<eval::CorpusDocument>& corpus() {
    return *corpus_;
  }
  /// The space the corpus trees were interned through.
  static core::LabelSpace* labels() { return labels_; }
  /// Options reading the corpus trees: their label space, nothing else.
  static core::DisambiguatorOptions CorpusOptions() {
    core::DisambiguatorOptions options;
    options.label_space = labels_;
    return options;
  }

 private:
  static const wordnet::SemanticNetwork* network_;
  static core::LabelSpace* labels_;
  static const std::vector<eval::CorpusDocument>* corpus_;
};

const wordnet::SemanticNetwork* CorpusInvariantsTest::network_ = nullptr;
const std::vector<eval::CorpusDocument>* CorpusInvariantsTest::corpus_ =
    nullptr;
core::LabelSpace* CorpusInvariantsTest::labels_ = nullptr;

TEST_F(CorpusInvariantsTest, AssignedConceptsAreSensesOfTheirLabels) {
  // The most important correctness invariant: whatever sense the
  // system picks for a node, that concept must actually be a sense of
  // (a token of) the node's label in the network.
  core::Disambiguator system(&network(), CorpusOptions());
  for (const auto& doc : corpus()) {
    auto result = system.RunOnTree(doc.tree);
    ASSERT_TRUE(result.ok());
    for (const auto& [id, assignment] : result->assignments) {
      const std::string label(result->tree.label(id));
      std::vector<wordnet::ConceptId> legal;
      for (const std::string& token :
           oracles::LabelSenseTokens(network(), label)) {
        const auto& senses = network().Senses(token);
        legal.insert(legal.end(), senses.begin(), senses.end());
      }
      EXPECT_NE(std::find(legal.begin(), legal.end(),
                          assignment.sense.primary),
                legal.end())
          << doc.generated.name << " node " << id << " label " << label;
      if (assignment.sense.is_compound()) {
        EXPECT_NE(std::find(legal.begin(), legal.end(),
                            assignment.sense.secondary),
                  legal.end())
            << doc.generated.name << " compound secondary for " << label;
      }
    }
  }
}

TEST_F(CorpusInvariantsTest, ScoresAndAmbiguitiesBounded) {
  core::Disambiguator system(&network(), CorpusOptions());
  for (const auto& doc : corpus()) {
    auto result = system.RunOnTree(doc.tree);
    ASSERT_TRUE(result.ok());
    for (const auto& [id, assignment] : result->assignments) {
      // Normalized score + MFS prior stays within [0, 1 + prior].
      EXPECT_GE(assignment.score, 0.0) << doc.generated.name;
      EXPECT_LE(assignment.score, 1.0 + 0.15 + 1e-9)
          << doc.generated.name;
      EXPECT_GE(assignment.candidate_count, 1);
      // Amb_Deg is the audit's, as selection computes it.
      auto audit = system.ExplainNode(result->tree, id);
      ASSERT_TRUE(audit.ok()) << doc.generated.name;
      EXPECT_GE(audit->ambiguity, 0.0);
      EXPECT_LE(audit->ambiguity, 1.0);
    }
  }
}

TEST_F(CorpusInvariantsTest, DisambiguationIsDeterministic) {
  core::Disambiguator system(&network(), CorpusOptions());
  const auto& doc = corpus()[0];
  auto a = system.RunOnTree(doc.tree);
  auto b = system.RunOnTree(doc.tree);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->assignments.size(), b->assignments.size());
  for (const auto& [id, assignment] : a->assignments) {
    const core::SenseAssignment* other = b->assignments.find(id);
    ASSERT_NE(other, nullptr) << "node " << id;
    EXPECT_EQ(assignment.sense.primary, other->sense.primary);
    EXPECT_EQ(assignment.sense.secondary, other->sense.secondary);
    EXPECT_DOUBLE_EQ(assignment.score, other->score);
  }
}

TEST_F(CorpusInvariantsTest, WndbRoundTripPreservesDisambiguation) {
  // Consuming the lexicon through the WNDB on-disk format must not
  // change any disambiguation decision.
  auto via_wndb = wordnet::BuildMiniWordNetViaWndb();
  ASSERT_TRUE(via_wndb.ok());
  core::Disambiguator direct(&network(), CorpusOptions());
  core::Disambiguator from_files(&*via_wndb);
  for (size_t i = 0; i < corpus().size(); i += 7) {
    const auto& doc = corpus()[i];
    // Label ids are network-relative, so the second network reads a
    // tree interned through its own label space.
    auto tree_b = core::BuildTreeStreaming(doc.generated.xml, *via_wndb,
                                           xml::ParseOptions{}, true,
                                           from_files.label_space());
    ASSERT_TRUE(tree_b.ok());
    auto a = direct.RunOnTree(doc.tree);
    auto b = from_files.RunOnTree(std::move(tree_b).value());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->assignments.size(), b->assignments.size())
        << doc.generated.name;
    for (const auto& [id, assignment] : a->assignments) {
      const core::SenseAssignment* other = b->assignments.find(id);
      ASSERT_NE(other, nullptr) << doc.generated.name << " node " << id;
      // Concept ids shift across the round trip (the parser groups
      // synsets by part of speech), so compare stable identity: the
      // gloss, which is unique per synset in the lexicon.
      EXPECT_EQ(network().GetConcept(assignment.sense.primary).gloss,
                via_wndb->GetConcept(other->sense.primary).gloss)
          << doc.generated.name << " node " << id;
    }
  }
}

TEST_F(CorpusInvariantsTest, SerializerRoundTripsEveryDocument) {
  for (const auto& doc : corpus()) {
    auto parsed = oracles::ParseDom(doc.generated.xml);
    ASSERT_TRUE(parsed.ok()) << doc.generated.name;
    std::string serialized = oracles::SerializeDom(*parsed);
    auto reparsed = oracles::ParseDom(serialized);
    ASSERT_TRUE(reparsed.ok()) << doc.generated.name;
    // Structure-preserving: same element count and same root.
    EXPECT_EQ(reparsed->CountElements(), parsed->CountElements())
        << doc.generated.name;
    EXPECT_EQ(reparsed->root()->name(), parsed->root()->name());
  }
}

TEST_F(CorpusInvariantsTest, TreesRebuildIdentically) {
  for (size_t i = 0; i < corpus().size(); i += 5) {
    const auto& doc = corpus()[i];
    auto rebuilt = core::BuildTreeStreaming(
        doc.generated.xml, network(), xml::ParseOptions{}, true, labels());
    ASSERT_TRUE(rebuilt.ok());
    ASSERT_EQ(rebuilt->size(), doc.tree.size()) << doc.generated.name;
    for (size_t n = 0; n < doc.tree.size(); ++n) {
      EXPECT_EQ(rebuilt->label(static_cast<int>(n)),
                doc.tree.label(static_cast<int>(n)));
      EXPECT_EQ(rebuilt->label_id(static_cast<int>(n)),
                doc.tree.label_id(static_cast<int>(n)));
    }
  }
}

TEST_F(CorpusInvariantsTest, ContextVectorInvariantsEverywhere) {
  // Over a sample of nodes from every document: weights in (0, 1],
  // every sphere label has a weight, cosine self-similarity is 1.
  for (const auto& doc : corpus()) {
    for (size_t i = 0; i < doc.target_sample.size(); i += 3) {
      xml::NodeId id = doc.target_sample[i];
      for (int radius : {1, 3}) {
        const core::IdSphere sphere =
            core::BuildXmlIdSphere(doc.tree, id, radius);
        const core::IdContextVector vector(sphere);
        for (int m = 0; m < sphere.size(); ++m) {
          const uint32_t dim = vector.member_dims()[m];
          ASSERT_LT(dim, vector.dimension_count());
          EXPECT_EQ(vector.ids()[dim], sphere.label_ids[m]);
          const double weight = vector.weights()[dim];
          EXPECT_GT(weight, 0.0) << doc.generated.name;
          EXPECT_LE(weight, 1.0);
          EXPECT_LE(sphere.distances[m], radius);
        }
        EXPECT_NEAR(vector.Cosine(vector), 1.0, 1e-9);
        EXPECT_NEAR(vector.Jaccard(vector), 1.0, 1e-9);
      }
    }
  }
}

TEST_F(CorpusInvariantsTest, RingsPartitionWithinRadius) {
  // Rings are disjoint, sorted, and their distances are exact.
  for (size_t i = 0; i < corpus().size(); i += 11) {
    const auto& tree = corpus()[i].tree;
    xml::NodeId center = static_cast<xml::NodeId>(tree.size() / 2);
    auto rings = oracles::Rings(tree, center, 3);
    std::vector<bool> seen(tree.size(), false);
    for (int d = 0; d < static_cast<int>(rings.size()); ++d) {
      for (xml::NodeId id : rings[static_cast<size_t>(d)]) {
        EXPECT_FALSE(seen[static_cast<size_t>(id)]);
        seen[static_cast<size_t>(id)] = true;
        EXPECT_EQ(oracles::Distance(tree, center, id), d);
      }
    }
  }
}

/// Fails unless BuildXmlIdSphere lists oracles::Rings()' members of
/// every node of `tree`, at radius 1-4, in its order with their label ids
/// and ring distances; excluding tokens drops exactly the token nodes
/// past the center.
void ExpectSpheresFollowRings(const xml::LabeledTree& tree,
                              const std::string& name) {
  core::IdSphere sphere;
  std::vector<uint32_t> want_ids;
  std::vector<int32_t> want_distances;
  for (xml::NodeId center : tree.ids()) {
    for (int radius = 1; radius <= 4; ++radius) {
      const auto rings = oracles::Rings(tree, center, radius);
      for (bool exclude_tokens : {false, true}) {
        want_ids.clear();
        want_distances.clear();
        for (int d = 0; d < static_cast<int>(rings.size()); ++d) {
          for (xml::NodeId id : rings[static_cast<size_t>(d)]) {
            if (exclude_tokens && d > 0 &&
                tree.kind(id) == xml::TreeNodeKind::kToken) {
              continue;
            }
            want_ids.push_back(tree.label_id(id));
            want_distances.push_back(d);
          }
        }
        core::BuildXmlIdSphere(tree, center, radius, exclude_tokens,
                               &sphere);
        ASSERT_EQ(sphere.label_ids, want_ids)
            << name << " node " << center << " radius " << radius
            << (exclude_tokens ? " without tokens" : "");
        ASSERT_EQ(sphere.distances, want_distances)
            << name << " node " << center << " radius " << radius
            << (exclude_tokens ? " without tokens" : "");
      }
    }
  }
}

TEST_F(CorpusInvariantsTest, SpheresFollowRingsEverywhere) {
  for (const auto& doc : corpus()) {
    ExpectSpheresFollowRings(doc.tree, doc.generated.name);
  }
  // The giant document's root has hundreds of children, so every
  // sphere reaching it holds a long run of siblings.
  const datasets::GeneratedDocument giant =
      datasets::GiantDocuments(1, 256u << 10, 1)[0];
  auto tree = core::BuildTreeStreaming(giant.xml, network(),
                                       xml::ParseOptions{}, true, labels());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_GT(tree->fan_out(tree->root()), 100);
  ExpectSpheresFollowRings(*tree, giant.name);
}

TEST_F(CorpusInvariantsTest, JaccardProcessStillDisambiguates) {
  core::DisambiguatorOptions options = CorpusOptions();
  options.process = core::DisambiguationProcess::kContextBased;
  options.vector_similarity = core::VectorSimilarity::kJaccard;
  core::Disambiguator system(&network(), options);
  const auto& doc = corpus()[0];
  auto result = system.RunOnTree(doc.tree);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->assignments.empty());
}

TEST_F(CorpusInvariantsTest, OutputDoesNotDependOnOverflowIdValues) {
  // Output may depend on which members share a label, never on the
  // value of its id. Build the tests/prop corpus and every dataset
  // document through a fresh space A, pre-intern A's overflow
  // spellings into a fresh space B in a shuffled order, then build
  // through B: the overflow ids move, and nothing else may.
  std::vector<std::string> texts;
  Rng rng(20260807);
  propgen::XmlGenOptions gen;
  gen.max_depth = 6;
  gen.max_children = 5;
  for (int i = 0; i < 500; ++i) {
    texts.push_back(propgen::GenerateXmlDocument(rng, gen));
  }
  for (const auto& doc : corpus()) texts.push_back(doc.generated.xml);
  auto build = [&](core::LabelSpace* space) {
    std::vector<xml::LabeledTree> trees;
    for (const std::string& text : texts) {
      auto tree = core::BuildTreeStreaming(text, network(),
                                           xml::ParseOptions{}, true, space);
      EXPECT_TRUE(tree.ok()) << tree.status().ToString();
      if (tree.ok()) trees.push_back(std::move(tree).value());
    }
    return trees;
  };
  core::LabelSpace space_a(&network());
  const std::vector<xml::LabeledTree> trees_a = build(&space_a);
  std::vector<std::string> overflow;
  for (size_t id = space_a.network_size(); id < space_a.size(); ++id) {
    overflow.push_back(space_a.Spelling(static_cast<uint32_t>(id)));
  }
  std::shuffle(overflow.begin(), overflow.end(), std::mt19937(20261020));
  core::LabelSpace space_b(&network());
  for (const std::string& spelling : overflow) space_b.Resolve(spelling);
  const std::vector<xml::LabeledTree> trees_b = build(&space_b);
  ASSERT_EQ(trees_a.size(), texts.size());
  ASSERT_EQ(trees_b.size(), texts.size());
  ASSERT_EQ(space_b.size(), space_a.size());
  size_t moved = 0;
  for (size_t i = 0; i < texts.size(); ++i) {
    for (xml::NodeId id : trees_a[i].ids()) {
      moved += trees_a[i].label_id(id) != trees_b[i].label_id(id);
    }
  }
  EXPECT_GT(moved, 0u) << "the shuffle moved no label id";

  for (core::DisambiguationProcess process :
       {core::DisambiguationProcess::kConceptBased,
        core::DisambiguationProcess::kContextBased}) {
    core::DisambiguatorOptions options;
    options.process = process;
    options.sphere_radius = 2;
    options.label_space = &space_a;
    core::Disambiguator system_a(&network(), options);
    options.label_space = &space_b;
    core::Disambiguator system_b(&network(), options);
    for (size_t i = 0; i < texts.size(); ++i) {
      auto a = system_a.RunOnTree(trees_a[i]);
      auto b = system_b.RunOnTree(trees_b[i]);
      ASSERT_TRUE(a.ok() && b.ok()) << "doc " << i;
      ASSERT_EQ(a->assignments.size(), b->assignments.size()) << "doc " << i;
      for (const auto& [id, assignment] : a->assignments) {
        const core::SenseAssignment* other = b->assignments.find(id);
        ASSERT_NE(other, nullptr) << "doc " << i << " node " << id;
        EXPECT_EQ(assignment.sense, other->sense)
            << "doc " << i << " node " << id;
        EXPECT_EQ(std::bit_cast<uint64_t>(assignment.score),
                  std::bit_cast<uint64_t>(other->score))
            << "doc " << i << " node " << id;
      }
      EXPECT_EQ(core::SemanticTreeToXml(*a, network()),
                core::SemanticTreeToXml(*b, network()))
          << "doc " << i;
    }
  }
}

}  // namespace
}  // namespace xsdf
