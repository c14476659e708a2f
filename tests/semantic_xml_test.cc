// Byte-identity of the semantic-tree writer: core::SemanticTreeToXml()
// writes the <semantic_tree> text directly, and must print exactly what
// the DOM-building oracle (tests/oracles) prints through its DOM
// serializer — on the experiments corpus, giant documents, the paper's
// Figure 1 documents, a document at the default depth cap, an empty
// tree, and a small network whose labels and glosses need escaping and
// whose compound senses emit concept2. Past the default depth cap the
// writer's indentation stops growing, so output stays linear in depth.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/disambiguator.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "eval/experiment.h"
#include "interned_tree.h"
#include "oracles/semantic_tree_dom.h"
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

/// `depth` nested `tag` elements, the innermost carrying `attribute`.
std::string Chain(int depth, const std::string& tag,
                  const std::string& attribute) {
  std::string xml;
  for (int d = 1; d < depth; ++d) xml += "<" + tag + ">";
  xml += "<" + tag + " " + attribute + "/>";
  for (int d = 1; d < depth; ++d) xml += "</" + tag + ">";
  return xml;
}

/// The widest indentation of any line of `text`, in spaces.
size_t MaxIndent(const std::string& text) {
  size_t widest = 0;
  size_t at = 0;
  while ((at = text.find('\n', at)) != std::string::npos) {
    const size_t begin = ++at;
    while (at < text.size() && text[at] == ' ') ++at;
    widest = std::max(widest, at - begin);
  }
  return widest;
}

TEST(SemanticTreeToXmlTest, MatchesDomOracleAtTheDefaultDepthCap) {
  // The deepest element the default cap admits, with an attribute whose
  // value token is the deepest node of any such document.
  const int cap = xml::ParseLimits{}.max_depth;
  core::Disambiguator disambiguator(&Network());
  auto semantic_tree =
      disambiguator.RunOnXml(Chain(cap, "star", "title=\"star\""));
  ASSERT_TRUE(semantic_tree.ok()) << semantic_tree.status().ToString();
  ASSERT_FALSE(semantic_tree->assignments.empty());
  ExpectWriterMatchesOracle(*semantic_tree, Network(), "chain at the cap");
  // The token sits at tree depth cap + 1, one level under the root.
  EXPECT_EQ(MaxIndent(core::SemanticTreeToXml(*semantic_tree, Network())),
            2u * static_cast<size_t>(cap + 2));
}

TEST(SemanticTreeToXmlTest, OutputStaysLinearPastTheDefaultDepthCap) {
  constexpr int kDepth = 20000;
  xml::ParseOptions raised;
  raised.limits.max_depth = kDepth;
  core::Disambiguator disambiguator(&Network());
  auto tree = core::BuildTreeStreaming(Chain(kDepth, "zq", "zr=\"zs\""),
                                       Network(), raised,
                                       /*include_values=*/true,
                                       disambiguator.label_space());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const size_t nodes = tree->size();
  auto semantic_tree = disambiguator.RunOnTree(std::move(tree).value());
  ASSERT_TRUE(semantic_tree.ok()) << semantic_tree.status().ToString();
  const std::string out = core::SemanticTreeToXml(*semantic_tree, Network());
  // An opening and a closing line per element, each indented at most
  // 2 * (cap + 2) spaces: ~22 MB, where unclamped indentation would
  // print ~800 MB.
  EXPECT_LT(out.size(), 1100u * nodes);
  EXPECT_EQ(MaxIndent(out),
            2u * static_cast<size_t>(xml::ParseLimits{}.max_depth + 2));
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
