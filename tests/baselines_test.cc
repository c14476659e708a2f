// Tests for the reimplemented comparison baselines: RPD (root-path
// disambiguation) and VSD (Gaussian-decay versatile structural
// disambiguation).

#include <gtest/gtest.h>

#include <cmath>

#include "core/baselines.h"
#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "interned_tree.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf::core {
namespace {

using wordnet::SemanticNetwork;

const SemanticNetwork& Network() {
  static const SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

/// The label space every tree in this file is interned through.
LabelSpace* Labels() {
  static LabelSpace* space = new LabelSpace(&Network());
  return space;
}

Result<xml::LabeledTree> ParseTree(const char* xml) {
  return BuildTreeStreaming(xml, Network(), xml::ParseOptions{},
                            /*include_values=*/true, Labels());
}

const char* kMovieDoc =
    "<films><picture><director>Hitchcock</director>"
    "<cast><star>Kelly</star></cast></picture></films>";

TEST(RpdTest, DisambiguatesStructureNodes) {
  auto tree = ParseTree(kMovieDoc);
  ASSERT_TRUE(tree.ok());
  RpdBaseline rpd(Labels());
  auto result = rpd.RunOnTree(*tree);
  ASSERT_TRUE(result.ok());
  // All element labels are in the lexicon -> all assigned.
  int structure_nodes = 0;
  for (xml::NodeId id : result->tree.ids()) {
    if (result->tree.kind(id) != xml::TreeNodeKind::kToken) ++structure_nodes;
  }
  EXPECT_EQ(static_cast<int>(result->assignments.size()),
            structure_nodes);
}

TEST(RpdTest, NeverTouchesContentTokens) {
  auto tree = ParseTree(kMovieDoc);
  ASSERT_TRUE(tree.ok());
  RpdBaseline rpd(Labels());
  auto result = rpd.RunOnTree(*tree);
  ASSERT_TRUE(result.ok());
  for (const auto& [id, assignment] : result->assignments) {
    EXPECT_NE(result->tree.kind(id), xml::TreeNodeKind::kToken);
  }
}

TEST(RpdTest, ScoreUsesRootPathContext) {
  auto tree = ParseTree(kMovieDoc);
  ASSERT_TRUE(tree.ok());
  RpdBaseline rpd(Labels());
  // Find the "cast" node: its path context (film/picture ancestors,
  // star descendants) strongly supports the cast-of-actors sense over
  // the plaster-cast sense.
  xml::NodeId cast = xml::kInvalidNode;
  for (xml::NodeId id : tree->ids()) {
    if (tree->label(id) == "cast") cast = id;
  }
  ASSERT_NE(cast, xml::kInvalidNode);
  auto actors = wordnet::MiniWordNetConceptByKey("cast.actors.n");
  ASSERT_TRUE(actors.ok());
  // A candidate scored with path context present is positive...
  EXPECT_GT(rpd.Score(*tree, cast, *actors), 0.0);
  // ...and with no context at all (single-node tree) it is zero.
  testutil::InternedTree lone(Labels());
  lone.Add(xml::kInvalidNode, "cast", xml::TreeNodeKind::kElement);
  EXPECT_DOUBLE_EQ(rpd.Score(lone.Finish(), 0, *actors), 0.0);
}

TEST(VsdTest, GaussianDecayShape) {
  VsdBaseline vsd(Labels());
  EXPECT_DOUBLE_EQ(vsd.DecayWeight(0), 1.0);
  EXPECT_GT(vsd.DecayWeight(1), vsd.DecayWeight(2));
  EXPECT_GT(vsd.DecayWeight(2), vsd.DecayWeight(3));
  // sigma controls the width.
  VsdBaseline::Options narrow;
  narrow.sigma = 0.5;
  VsdBaseline vsd_narrow(Labels(), narrow);
  EXPECT_LT(vsd_narrow.DecayWeight(2), vsd.DecayWeight(2));
}

TEST(VsdTest, LeacockChodorowProperties) {
  VsdBaseline vsd(Labels());
  auto actor = wordnet::MiniWordNetConceptByKey("actor.n");
  auto actress = wordnet::MiniWordNetConceptByKey("actress.n");
  auto calorie = wordnet::MiniWordNetConceptByKey("calorie.n");
  ASSERT_TRUE(actor.ok());
  EXPECT_DOUBLE_EQ(vsd.LeacockChodorow(*actor, *actor), 1.0);
  double near = vsd.LeacockChodorow(*actor, *actress);
  double far = vsd.LeacockChodorow(*actor, *calorie);
  EXPECT_GT(near, far);
  EXPECT_GE(far, 0.0);
  EXPECT_LE(near, 1.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(vsd.LeacockChodorow(*actor, *actress),
                   vsd.LeacockChodorow(*actress, *actor));
}

TEST(VsdTest, CrossableThresholdLimitsContext) {
  // With a very tight threshold only the immediate ring is crossable,
  // so scores shrink relative to a permissive threshold.
  auto tree = ParseTree(kMovieDoc);
  ASSERT_TRUE(tree.ok());
  xml::NodeId star = xml::kInvalidNode;
  for (xml::NodeId id : tree->ids()) {
    if (tree->label(id) == "star") star = id;
  }
  auto performer = wordnet::MiniWordNetConceptByKey("star.performer.n");
  VsdBaseline::Options tight;
  tight.threshold = 0.75;
  VsdBaseline vsd_tight(Labels(), tight);
  VsdBaseline vsd_loose(Labels());
  EXPECT_LT(vsd_tight.Score(*tree, star, *performer),
            vsd_loose.Score(*tree, star, *performer));
}

TEST(VsdTest, RunAssignsStructureOnly) {
  auto tree = ParseTree(kMovieDoc);
  ASSERT_TRUE(tree.ok());
  VsdBaseline vsd(Labels());
  auto result = vsd.RunOnTree(*tree);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->assignments.empty());
  for (const auto& [id, assignment] : result->assignments) {
    EXPECT_NE(result->tree.kind(id), xml::TreeNodeKind::kToken);
    EXPECT_FALSE(assignment.sense.is_compound());
  }
}

TEST(BaselineComparisonTest, SystemsDisagreeSomewhere) {
  // RPD and VSD are different algorithms; across a reasonable document
  // they should not produce identical sense assignments everywhere.
  const char* doc =
      "<club><name>golf</name><president>Stewart</president>"
      "<members><member><hobby>tennis</hobby></member></members></club>";
  auto tree = ParseTree(doc);
  ASSERT_TRUE(tree.ok());
  RpdBaseline rpd(Labels());
  VsdBaseline vsd(Labels());
  auto rpd_result = rpd.RunOnTree(*tree);
  auto vsd_result = vsd.RunOnTree(*tree);
  ASSERT_TRUE(rpd_result.ok());
  ASSERT_TRUE(vsd_result.ok());
  EXPECT_EQ(rpd_result->assignments.size(),
            vsd_result->assignments.size());
}

TEST(BaselineLabelSpaceTest, TreeFromAnotherSpaceIsInvalidArgument) {
  // Like Disambiguator, the baselines read label ids straight off the
  // tree, so a tree interned through another space is rejected.
  LabelSpace other(&Network());
  auto foreign = BuildTreeStreaming(kMovieDoc, Network(), xml::ParseOptions{},
                                    /*include_values=*/true, &other);
  ASSERT_TRUE(foreign.ok());
  RpdBaseline rpd(Labels());
  VsdBaseline vsd(Labels());
  auto rpd_result = rpd.RunOnTree(*foreign);
  auto vsd_result = vsd.RunOnTree(*foreign);
  EXPECT_EQ(rpd_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(vsd_result.status().code(), StatusCode::kInvalidArgument);
  // The same document through the baselines' own space runs.
  auto own = ParseTree(kMovieDoc);
  ASSERT_TRUE(own.ok());
  EXPECT_TRUE(rpd.RunOnTree(*own).ok());
  EXPECT_TRUE(vsd.RunOnTree(*own).ok());
}

}  // namespace
}  // namespace xsdf::core
