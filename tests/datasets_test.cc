// Tests for the ten dataset generators (paper Table 3): counts,
// grammar conformance, parse validity, gold resolvability against the
// mini-WordNet, determinism, and group shape profiles.

#include <gtest/gtest.h>

#include <set>

#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "eval/gold.h"
#include "oracles/dom.h"
#include "wordnet/mini_wordnet.h"
#include "xml/parser.h"
#include "xml/tree_stats.h"

namespace xsdf::datasets {
namespace {

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

/// The label space every tree in this file is interned through.
core::LabelSpace* Labels() {
  static core::LabelSpace* space = new core::LabelSpace(&Network());
  return space;
}

TEST(DatasetsTest, TenFamiliesRegistered) {
  const auto& all = AllDatasets();
  ASSERT_EQ(all.size(), 10u);
  std::set<int> ids;
  for (const DatasetGenerator* generator : all) {
    ids.insert(generator->info().id);
    EXPECT_GE(generator->info().group, 1);
    EXPECT_LE(generator->info().group, 4);
    EXPECT_FALSE(generator->info().grammar.empty());
  }
  EXPECT_EQ(ids.size(), 10u);  // distinct ids 1..10
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), 10);
}

TEST(DatasetsTest, DocumentCountsMatchTable3) {
  // Table 3 column "N# of docs": 10,10,6,6,8,4,4,4,4,4 (60 total).
  const int expected[] = {10, 10, 6, 6, 8, 4, 4, 4, 4, 4};
  int total = 0;
  for (const DatasetGenerator* generator : AllDatasets()) {
    int count = generator->info().doc_count;
    EXPECT_EQ(count, expected[generator->info().id - 1])
        << generator->info().grammar;
    EXPECT_EQ(generator->Generate(1).size(), static_cast<size_t>(count));
    total += count;
  }
  EXPECT_EQ(total, 60);
}

TEST(DatasetsTest, EveryDocumentParses) {
  for (const DatasetGenerator* generator : AllDatasets()) {
    for (const GeneratedDocument& doc : generator->Generate(7)) {
      auto parsed = oracles::ParseDom(doc.xml);
      EXPECT_TRUE(parsed.ok())
          << doc.name << ": " << parsed.status().ToString();
    }
  }
}

TEST(DatasetsTest, GenerationIsDeterministic) {
  for (const DatasetGenerator* generator : AllDatasets()) {
    auto a = generator->Generate(99);
    auto b = generator->Generate(99);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].xml, b[i].xml) << a[i].name;
      EXPECT_EQ(a[i].gold, b[i].gold);
    }
  }
}

TEST(DatasetsTest, DifferentSeedsVary) {
  const DatasetGenerator* shakespeare = AllDatasets()[0];
  auto a = shakespeare->Generate(1);
  auto b = shakespeare->Generate(2);
  EXPECT_NE(a[0].xml, b[0].xml);
}

TEST(DatasetsTest, GoldKeysAllResolve) {
  for (const DatasetGenerator* generator : AllDatasets()) {
    for (const GeneratedDocument& doc : generator->Generate(3)) {
      auto gold = eval::ResolveGold(doc.gold);
      EXPECT_TRUE(gold.ok()) << doc.name << ": "
                             << gold.status().ToString();
    }
  }
}

TEST(DatasetsTest, GoldLabelsAppearInTrees) {
  // The gold standard keys must match post-preprocessing node labels,
  // otherwise evaluation silently scores nothing. Require that a large
  // majority of gold labels occur in the tree (a few are conditional
  // on random choices).
  for (const DatasetGenerator* generator : AllDatasets()) {
    auto docs = generator->Generate(5);
    int present = 0;
    int total = 0;
    for (const GeneratedDocument& doc : docs) {
      auto tree = core::BuildTreeStreaming(doc.xml, Network(),
                                           xml::ParseOptions{}, true, Labels());
      ASSERT_TRUE(tree.ok());
      std::set<std::string> labels;
      for (xml::NodeId id : tree->ids()) labels.emplace(tree->label(id));
      for (const auto& [label, key] : doc.gold) {
        ++total;
        if (labels.count(label)) ++present;
      }
    }
    EXPECT_GT(present, total * 9 / 10) << generator->info().grammar;
  }
}

TEST(DatasetsTest, ShakespeareIsLargestAndDeepest) {
  auto shakespeare = AllDatasets()[0]->Generate(11);
  auto club = AllDatasets()[9]->Generate(11);
  auto tree_s =
      core::BuildTreeStreaming(shakespeare[0].xml, Network(),
                               xml::ParseOptions{}, true, Labels());
  auto tree_c = core::BuildTreeStreaming(club[0].xml, Network(),
                                         xml::ParseOptions{}, true, Labels());
  ASSERT_TRUE(tree_s.ok());
  ASSERT_TRUE(tree_c.ok());
  xml::TreeShape shape_s = xml::ComputeTreeShape(*tree_s);
  xml::TreeShape shape_c = xml::ComputeTreeShape(*tree_c);
  EXPECT_GT(shape_s.node_count, 100);
  EXPECT_GT(shape_s.node_count, 3 * shape_c.node_count);
  EXPECT_GT(shape_s.max_depth, shape_c.max_depth);
}

TEST(DatasetsTest, GroupOneIsMostAmbiguous) {
  // Average label polysemy should decline from Group 1/2 to Group 4.
  auto polysemy_of = [&](int index) {
    auto docs = AllDatasets()[static_cast<size_t>(index)]->Generate(13);
    double sum = 0.0;
    int nodes = 0;
    for (const auto& doc : docs) {
      auto tree = core::BuildTreeStreaming(doc.xml, Network(),
                                           xml::ParseOptions{}, true, Labels());
      for (xml::NodeId id : tree->ids()) {
        sum += Network().SenseCount(tree->label(id));
        ++nodes;
      }
    }
    return sum / nodes;
  };
  double shakespeare = polysemy_of(0);
  double food = polysemy_of(6);
  EXPECT_GT(shakespeare, food);
}

TEST(Figure1Test, BothDocumentsParseAndCarryGold) {
  auto docs = Figure1Documents();
  ASSERT_EQ(docs.size(), 2u);
  for (const GeneratedDocument& doc : docs) {
    auto parsed = oracles::ParseDom(doc.xml);
    ASSERT_TRUE(parsed.ok()) << doc.name;
    auto gold = eval::ResolveGold(doc.gold);
    EXPECT_TRUE(gold.ok()) << gold.status().ToString();
    EXPECT_GT(doc.gold.size(), 5u);
  }
  // The two documents describe the same movie with different tagging —
  // both gold standards agree on Kelly and Stewart.
  EXPECT_EQ(docs[0].gold.at("kelly"), docs[1].gold.at("kelly"));
  EXPECT_EQ(docs[0].gold.at("stewart"), docs[1].gold.at("stewart"));
}

}  // namespace
}  // namespace xsdf::datasets
