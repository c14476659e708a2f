// Byte-identity of the semantic-tree writer: core::SemanticTreeToXml()
// writes the <semantic_tree> text directly, and must print exactly what
// the DOM-building oracle (tests/oracles) prints through xml::Serialize
// — on the experiments corpus, giant documents, the paper's Figure 1
// documents, an empty tree, and a small network whose labels and
// glosses need escaping and whose compound senses emit concept2.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/disambiguator.h"
#include "datasets/generator.h"
#include "eval/experiment.h"
#include "interned_tree.h"
#include "oracles/semantic_tree_dom.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf {
namespace {

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

void ExpectWriterMatchesOracle(const core::SemanticTree& semantic_tree,
                               const wordnet::SemanticNetwork& network,
                               const std::string& context) {
  const std::string expected =
      oracles::SemanticTreeToXmlViaDom(semantic_tree, network);
  const std::string actual = core::SemanticTreeToXml(semantic_tree, network);
  if (expected == actual) return;
  size_t at = 0;
  while (at < expected.size() && at < actual.size() &&
         expected[at] == actual[at]) {
    ++at;
  }
  ADD_FAILURE() << context << ": output differs from the DOM oracle at byte "
                << at << " (oracle " << expected.size() << " bytes, writer "
                << actual.size() << " bytes)\n  oracle: "
                << expected.substr(at > 40 ? at - 40 : 0, 80)
                << "\n  writer: " << actual.substr(at > 40 ? at - 40 : 0, 80);
}

void ExpectDocumentsMatch(const std::vector<datasets::GeneratedDocument>& docs) {
  core::Disambiguator disambiguator(&Network());
  for (const auto& doc : docs) {
    auto semantic_tree = disambiguator.RunOnXml(doc.xml);
    ASSERT_TRUE(semantic_tree.ok()) << doc.name;
    ASSERT_FALSE(semantic_tree->assignments.empty()) << doc.name;
    ExpectWriterMatchesOracle(*semantic_tree, Network(), doc.name);
  }
}

TEST(SemanticTreeToXmlTest, MatchesDomOracleOnExperimentsCorpus) {
  core::Disambiguator disambiguator(&Network());
  auto corpus = eval::BuildCorpus(Network(), disambiguator.label_space());
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_FALSE(corpus->empty());
  for (const eval::CorpusDocument& doc : *corpus) {
    auto semantic_tree = disambiguator.RunOnTree(doc.tree);
    ASSERT_TRUE(semantic_tree.ok()) << doc.generated.name;
    ExpectWriterMatchesOracle(*semantic_tree, Network(), doc.generated.name);
  }
}

TEST(SemanticTreeToXmlTest, MatchesDomOracleOnGiantDocuments) {
  // One deep and one wide profile.
  ExpectDocumentsMatch(datasets::GiantDocuments(2, 256u << 10, 1));
}

TEST(SemanticTreeToXmlTest, MatchesDomOracleOnFigure1Documents) {
  ExpectDocumentsMatch(datasets::Figure1Documents());
}

TEST(SemanticTreeToXmlTest, EmptyTree) {
  const core::SemanticTree empty;
  ExpectWriterMatchesOracle(empty, Network(), "empty tree");
  EXPECT_EQ(core::SemanticTreeToXml(empty, Network()),
            "<?xml version=\"1.0\"?>\n<semantic_tree/>");
}

/// Lemmas and glosses carrying every character the writer must escape.
wordnet::SemanticNetwork EscapingNetwork() {
  using wordnet::PartOfSpeech;
  wordnet::SemanticNetwork network;
  wordnet::ConceptId root =
      network.AddConcept(PartOfSpeech::kNoun, {"thing"}, "a \"root\" thing");
  wordnet::ConceptId lt1 = network.AddConcept(
      PartOfSpeech::kNoun, {"a<b"}, "less than <b> & more");
  wordnet::ConceptId lt2 = network.AddConcept(
      PartOfSpeech::kNoun, {"a<b"}, "a \"quoted\" sense > 1");
  wordnet::ConceptId amp1 =
      network.AddConcept(PartOfSpeech::kNoun, {"c&d"}, "r&d <lab>");
  wordnet::ConceptId amp2 =
      network.AddConcept(PartOfSpeech::kNoun, {"c&d"}, "\"c\" & \"d\"");
  for (wordnet::ConceptId id : {lt1, lt2, amp1, amp2}) {
    network.AddEdge(id, wordnet::Relation::kHypernym, root);
  }
  network.SetFrequency(lt1, 3);
  network.SetFrequency(amp2, 2);
  network.FinalizeFrequencies();
  return network;
}

TEST(SemanticTreeToXmlTest, EscapesLabelsAndGlossesAndWritesCompounds) {
  const wordnet::SemanticNetwork network = EscapingNetwork();
  // Children are linked out of id order (node 4 hangs under node 1
  // after node 3 went under the root), so a writer that walked ids
  // instead of child lists would disagree with the oracle.
  core::Disambiguator disambiguator(&network);
  testutil::InternedTree tree(disambiguator.label_space());
  tree.Add(xml::kInvalidNode, "thing", xml::TreeNodeKind::kElement);
  tree.Add(0, "a<b", xml::TreeNodeKind::kElement);
  tree.Add(1, "c&d", xml::TreeNodeKind::kAttribute);
  tree.Add(0, "a<b_c&d", xml::TreeNodeKind::kElement);
  tree.Add(1, "x\"y>z", xml::TreeNodeKind::kToken);
  auto semantic_tree = disambiguator.RunOnTree(tree.Finish());
  ASSERT_TRUE(semantic_tree.ok());
  const core::SenseAssignment* compound = semantic_tree->assignments.find(3);
  ASSERT_NE(compound, nullptr);
  ASSERT_TRUE(compound->sense.is_compound());
  ExpectWriterMatchesOracle(*semantic_tree, network, "escaping network");

  const std::string out = core::SemanticTreeToXml(*semantic_tree, network);
  EXPECT_NE(out.find("label=\"a&lt;b_c&amp;d\""), std::string::npos) << out;
  EXPECT_NE(out.find("concept2=\"c&amp;d\""), std::string::npos) << out;
  EXPECT_NE(out.find("concept2_id=\""), std::string::npos) << out;
  EXPECT_NE(out.find("gloss=\"a &quot;root&quot; thing\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("label=\"x&quot;y&gt;z\" kind=\"token\"/>"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("\"quoted\""), std::string::npos) << out;
}

}  // namespace
}  // namespace xsdf
