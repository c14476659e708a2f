// Tests for the ambiguity degree (paper §3.3): Propositions 1-3,
// Assumptions 1-4, the Definition 3 ratio, the compound special case,
// and threshold-based target selection.

#include <gtest/gtest.h>

#include "core/ambiguity.h"
#include "core/tree_builder.h"
#include "interned_tree.h"
#include "wordnet/mini_wordnet.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {
namespace {

using wordnet::SemanticNetwork;
using xml::kInvalidNode;
using xml::LabeledTree;
using xml::NodeId;
using xml::TreeNodeKind;
using testutil::InternedTree;

const SemanticNetwork& Network() {
  static const SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

/// Figure 5.a-style tree: picture with several distinct children.
LabeledTree RichTree() {
  InternedTree tree;
  NodeId picture =
      tree.Add(kInvalidNode, "picture", TreeNodeKind::kElement);
  tree.Add(picture, "director", TreeNodeKind::kElement);
  NodeId cast = tree.Add(picture, "cast", TreeNodeKind::kElement);
  tree.Add(cast, "star", TreeNodeKind::kElement);
  tree.Add(cast, "star", TreeNodeKind::kElement);
  tree.Add(picture, "genre", TreeNodeKind::kElement);
  tree.Add(picture, "plot", TreeNodeKind::kElement);
  return tree.Finish();
}

/// Figure 5.b-style tree: picture with identical children labels.
LabeledTree PoorTree() {
  InternedTree tree;
  NodeId picture =
      tree.Add(kInvalidNode, "picture", TreeNodeKind::kElement);
  for (int i = 0; i < 4; ++i) {
    tree.Add(picture, "star", TreeNodeKind::kElement);
  }
  return tree.Finish();
}

TEST(AmbiguityPolysemyTest, Proposition1Monotonicity) {
  // More senses -> higher polysemy factor.
  double head = AmbiguityPolysemy(Network(), "head");    // 33 senses
  double state = AmbiguityPolysemy(Network(), "state");  // 8 senses
  double genre = AmbiguityPolysemy(Network(), "genre");  // 2 senses
  EXPECT_GT(head, state);
  EXPECT_GT(state, genre);
  EXPECT_GT(genre, 0.0);
}

TEST(AmbiguityPolysemyTest, MaximalForMaxPolysemyWord) {
  // head carries Max(senses(SN)) -> factor exactly 1 (Eq. 1).
  EXPECT_DOUBLE_EQ(AmbiguityPolysemy(Network(), "head"), 1.0);
}

TEST(AmbiguityPolysemyTest, Assumption4MonosemousIsZero) {
  EXPECT_DOUBLE_EQ(AmbiguityPolysemy(Network(), "wheelchair"), 0.0);
  EXPECT_DOUBLE_EQ(AmbiguityPolysemy(Network(), "zzqq_xxyy"), 0.0);
}

TEST(AmbiguityPolysemyTest, CompoundAveragesTokens) {
  double movie = AmbiguityPolysemy(Network(), "movie");
  double star = AmbiguityPolysemy(Network(), "star");
  EXPECT_NEAR(AmbiguityPolysemy(Network(), "movie_star"),
              (movie + star) / 2.0, 1e-12);
}

TEST(AmbiguityDepthTest, Proposition2Monotonicity) {
  LabeledTree tree = RichTree();
  // Root is most ambiguous by depth; leaves least.
  EXPECT_DOUBLE_EQ(AmbiguityDepth(tree, 0), 1.0);
  EXPECT_GT(AmbiguityDepth(tree, 0), AmbiguityDepth(tree, 2));
  EXPECT_GT(AmbiguityDepth(tree, 2), AmbiguityDepth(tree, 3));
  EXPECT_DOUBLE_EQ(AmbiguityDepth(tree, 3), 0.0);  // max depth
}

TEST(AmbiguityDensityTest, Proposition3Monotonicity) {
  // Within one tree (the Eq. 3 normalizer is per-tree): the rich root
  // (4 distinct child labels) is less density-ambiguous than "cast",
  // whose two children share one label.
  LabeledTree rich = RichTree();
  EXPECT_LT(AmbiguityDensity(rich, 0), AmbiguityDensity(rich, 2));
  // And leaves (no children at all) are maximal.
  EXPECT_LT(AmbiguityDensity(rich, 2), AmbiguityDensity(rich, 3) + 1e-12);
}

TEST(AmbiguityDegreeTest, Figure5Intuition) {
  // Figure 5: "picture" over distinct children (director/cast/genre/
  // plot) vs over four identical "star" children. Put both shapes in
  // one tree so the per-tree normalizers cancel, then compare the two
  // picture nodes.
  InternedTree builder;
  NodeId root = builder.Add(kInvalidNode, "collection",
                            TreeNodeKind::kElement);
  NodeId rich = builder.Add(root, "picture", TreeNodeKind::kElement);
  builder.Add(rich, "director", TreeNodeKind::kElement);
  builder.Add(rich, "cast", TreeNodeKind::kElement);
  builder.Add(rich, "genre", TreeNodeKind::kElement);
  builder.Add(rich, "plot", TreeNodeKind::kElement);
  NodeId poor = builder.Add(root, "picture", TreeNodeKind::kElement);
  for (int i = 0; i < 4; ++i) {
    builder.Add(poor, "star", TreeNodeKind::kElement);
  }
  const LabeledTree tree = builder.Finish();
  EXPECT_LT(AmbiguityDegree(tree, rich, Network()),
            AmbiguityDegree(tree, poor, Network()));
}

TEST(AmbiguityDegreeTest, RangeAndAssumption4) {
  LabeledTree tree = RichTree();
  for (xml::NodeId id : tree.ids()) {
    double degree = AmbiguityDegree(tree, id, Network());
    EXPECT_GE(degree, 0.0);
    EXPECT_LE(degree, 1.0);
  }
  // "director" has several senses -> nonzero; a monosemous label is 0
  // regardless of structure (Assumption 4).
  InternedTree mono;
  mono.Add(kInvalidNode, "wheelchair", TreeNodeKind::kElement);
  EXPECT_DOUBLE_EQ(AmbiguityDegree(mono.Finish(), 0, Network()), 0.0);
}

TEST(AmbiguityDegreeTest, PolysemyWeightZeroDisables) {
  LabeledTree tree = RichTree();
  AmbiguityWeights weights;
  weights.polysemy = 0.0;
  for (xml::NodeId id : tree.ids()) {
    EXPECT_DOUBLE_EQ(AmbiguityDegree(tree, id, Network(), weights),
                     0.0);
  }
}

TEST(AmbiguityDegreeTest, DepthWeightRaisesShallowNodes) {
  LabeledTree tree = RichTree();
  AmbiguityWeights depth_on{1.0, 1.0, 0.0};
  AmbiguityWeights depth_off{1.0, 0.0, 0.0};
  // Eq. 4's denominator grows with (1 - Amb_Depth); for the root
  // (Amb_Depth = 1) the depth term vanishes, so both configs agree.
  EXPECT_NEAR(AmbiguityDegree(tree, 0, Network(), depth_on),
              AmbiguityDegree(tree, 0, Network(), depth_off), 1e-12);
  // For a deep node the depth term penalizes (deep = less ambiguous).
  EXPECT_LT(AmbiguityDegree(tree, 3, Network(), depth_on),
            AmbiguityDegree(tree, 3, Network(), depth_off));
}

TEST(AverageAmbiguityTest, EmptyTreeIsZero) {
  LabeledTree tree;
  EXPECT_DOUBLE_EQ(AverageAmbiguityDegree(tree, Network()), 0.0);
}

TEST(SelectTargetsTest, ThresholdZeroSelectsAllSenseBearing) {
  LabeledTree tree = RichTree();
  auto targets = SelectTargetNodes(tree, Network(), 0.0);
  // Every label of RichTree is in the lexicon.
  EXPECT_EQ(targets.size(), tree.size());
}

TEST(SelectTargetsTest, SenselessLabelsNeverSelected) {
  InternedTree tree;
  tree.Add(kInvalidNode, "zzunknownzz", TreeNodeKind::kElement);
  EXPECT_TRUE(SelectTargetNodes(tree.Finish(), Network(), 0.0).empty());
}

TEST(SelectTargetsTest, ThresholdMonotone) {
  LabeledTree tree = RichTree();
  size_t previous = tree.size() + 1;
  for (double threshold : {0.0, 0.01, 0.05, 0.2, 0.9}) {
    auto targets = SelectTargetNodes(tree, Network(), threshold);
    EXPECT_LE(targets.size(), previous);
    previous = targets.size();
  }
}

TEST(SelectTargetsTest, HighThresholdKeepsOnlyMostAmbiguous) {
  LabeledTree tree = PoorTree();
  // picture (5 senses, root, low density) should outrank star children
  // once thresholded near its own degree.
  double root_degree = AmbiguityDegree(tree, 0, Network());
  auto targets = SelectTargetNodes(tree, Network(), root_degree);
  ASSERT_FALSE(targets.empty());
  EXPECT_EQ(targets[0], 0);
}

TEST(LabelSenseTokensTest, SingleAndCompound) {
  EXPECT_EQ(LabelSenseTokens(Network(), "star"),
            (std::vector<std::string>{"star"}));
  // A collocation the lexicon knows stays whole.
  EXPECT_EQ(LabelSenseTokens(Network(), "first_name"),
            (std::vector<std::string>{"first_name"}));
  // An unknown compound splits.
  EXPECT_EQ(LabelSenseTokens(Network(), "movie_star"),
            (std::vector<std::string>{"movie", "star"}));
  EXPECT_TRUE(LabelSenseTokens(Network(), "").empty());
}

}  // namespace
}  // namespace xsdf::core
