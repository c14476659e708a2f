// Tests for the ambiguity degree (paper §3.3): Propositions 1-3,
// Assumptions 1-4, the Definition 3 ratio, the compound special case,
// and threshold-based target selection. Amb_Polysemy and label senses
// come from LabelSpace; the per-node string path in tests/oracles/ is
// the reference they are held to.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/ambiguity.h"
#include "core/label_space.h"
#include "interned_tree.h"
#include "oracles/string_pipeline.h"
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

/// The label space every tree in this file is built through.
LabelSpace& Labels() {
  static LabelSpace* space = new LabelSpace(&Network());
  return *space;
}

/// The memoized senses of `label`.
const LabelSenses& SensesOf(const std::string& label) {
  return Labels().Senses(Labels().Resolve(label));
}

/// Amb_Polysemy of `label`, as LabelSpace memoizes it.
double Polysemy(const std::string& label) { return SensesOf(label).polysemy; }

/// Amb_Deg of node `id` from its label's memoized polysemy.
double Degree(const LabeledTree& tree, NodeId id,
              const AmbiguityWeights& weights = {}) {
  return AmbiguityDegree(tree, id, Labels().Senses(tree.label_id(id)).polysemy,
                         weights);
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Figure 5.a-style tree: picture with several distinct children.
LabeledTree RichTree() {
  InternedTree tree(&Labels());
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
  InternedTree tree(&Labels());
  NodeId picture =
      tree.Add(kInvalidNode, "picture", TreeNodeKind::kElement);
  for (int i = 0; i < 4; ++i) {
    tree.Add(picture, "star", TreeNodeKind::kElement);
  }
  return tree.Finish();
}

TEST(AmbiguityPolysemyTest, Proposition1Monotonicity) {
  // More senses -> higher polysemy factor.
  double head = Polysemy("head");    // 33 senses
  double state = Polysemy("state");  // 8 senses
  double genre = Polysemy("genre");  // 2 senses
  EXPECT_GT(head, state);
  EXPECT_GT(state, genre);
  EXPECT_GT(genre, 0.0);
}

TEST(AmbiguityPolysemyTest, MaximalForMaxPolysemyWord) {
  // head carries Max(senses(SN)) -> factor exactly 1 (Eq. 1).
  EXPECT_DOUBLE_EQ(Polysemy("head"), 1.0);
}

TEST(AmbiguityPolysemyTest, Assumption4MonosemousIsZero) {
  EXPECT_DOUBLE_EQ(Polysemy("wheelchair"), 0.0);
  EXPECT_DOUBLE_EQ(Polysemy("zzqq_xxyy"), 0.0);
}

TEST(AmbiguityPolysemyTest, CompoundAveragesTokens) {
  double movie = Polysemy("movie");
  double star = Polysemy("star");
  EXPECT_NEAR(Polysemy("movie_star"), (movie + star) / 2.0, 1e-12);
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
  InternedTree builder(&Labels());
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
  EXPECT_LT(Degree(tree, rich), Degree(tree, poor));
}

TEST(AmbiguityDegreeTest, RangeAndAssumption4) {
  LabeledTree tree = RichTree();
  for (xml::NodeId id : tree.ids()) {
    double degree = Degree(tree, id);
    EXPECT_GE(degree, 0.0);
    EXPECT_LE(degree, 1.0);
  }
  // "director" has several senses -> nonzero; a monosemous label is 0
  // regardless of structure (Assumption 4).
  InternedTree mono(&Labels());
  mono.Add(kInvalidNode, "wheelchair", TreeNodeKind::kElement);
  EXPECT_DOUBLE_EQ(Degree(mono.Finish(), 0), 0.0);
}

TEST(AmbiguityDegreeTest, PolysemyWeightZeroDisables) {
  LabeledTree tree = RichTree();
  AmbiguityWeights weights;
  weights.polysemy = 0.0;
  for (xml::NodeId id : tree.ids()) {
    EXPECT_DOUBLE_EQ(Degree(tree, id, weights), 0.0);
  }
}

TEST(AmbiguityDegreeTest, DepthWeightRaisesShallowNodes) {
  LabeledTree tree = RichTree();
  AmbiguityWeights depth_on{1.0, 1.0, 0.0};
  AmbiguityWeights depth_off{1.0, 0.0, 0.0};
  // Eq. 4's denominator grows with (1 - Amb_Depth); for the root
  // (Amb_Depth = 1) the depth term vanishes, so both configs agree.
  EXPECT_NEAR(Degree(tree, 0, depth_on), Degree(tree, 0, depth_off), 1e-12);
  // For a deep node the depth term penalizes (deep = less ambiguous).
  EXPECT_LT(Degree(tree, 3, depth_on), Degree(tree, 3, depth_off));
}

TEST(AverageAmbiguityTest, EmptyTreeIsZero) {
  LabeledTree tree;
  EXPECT_DOUBLE_EQ(AverageAmbiguityDegree(tree, Labels()), 0.0);
}

TEST(SelectTargetsTest, ThresholdZeroSelectsAllSenseBearing) {
  LabeledTree tree = RichTree();
  auto targets = SelectTargetNodes(tree, Labels(), 0.0);
  // Every label of RichTree is in the lexicon.
  EXPECT_EQ(targets.size(), tree.size());
}

TEST(SelectTargetsTest, SenselessLabelsNeverSelected) {
  InternedTree tree(&Labels());
  tree.Add(kInvalidNode, "zzunknownzz", TreeNodeKind::kElement);
  EXPECT_TRUE(SelectTargetNodes(tree.Finish(), Labels(), 0.0).empty());
}

TEST(SelectTargetsTest, ThresholdMonotone) {
  LabeledTree tree = RichTree();
  size_t previous = tree.size() + 1;
  for (double threshold : {0.0, 0.01, 0.05, 0.2, 0.9}) {
    auto targets = SelectTargetNodes(tree, Labels(), threshold);
    EXPECT_LE(targets.size(), previous);
    previous = targets.size();
  }
}

TEST(SelectTargetsTest, HighThresholdKeepsOnlyMostAmbiguous) {
  LabeledTree tree = PoorTree();
  // picture (5 senses, root, low density) should outrank star children
  // once thresholded near its own degree.
  double root_degree = Degree(tree, 0);
  auto targets = SelectTargetNodes(tree, Labels(), root_degree);
  ASSERT_FALSE(targets.empty());
  EXPECT_EQ(targets[0], 0);
}

TEST(LabelSenseTokensTest, SingleAndCompound) {
  // The reference token rule...
  EXPECT_EQ(oracles::LabelSenseTokens(Network(), "star"),
            (std::vector<std::string>{"star"}));
  // A collocation the lexicon knows stays whole.
  EXPECT_EQ(oracles::LabelSenseTokens(Network(), "first_name"),
            (std::vector<std::string>{"first_name"}));
  // An unknown compound splits.
  EXPECT_EQ(oracles::LabelSenseTokens(Network(), "movie_star"),
            (std::vector<std::string>{"movie", "star"}));
  EXPECT_TRUE(oracles::LabelSenseTokens(Network(), "").empty());
  // ...and the per-token sense lists LabelSpace resolves by it.
  auto same_span = [](std::span<const wordnet::ConceptId> span,
                      const std::vector<wordnet::ConceptId>& senses) {
    return span.data() == senses.data() && span.size() == senses.size();
  };
  ASSERT_EQ(SensesOf("star").token_senses.size(), 1u);
  EXPECT_TRUE(same_span(SensesOf("star").token_senses[0],
                        Network().Senses("star")));
  ASSERT_EQ(SensesOf("first_name").token_senses.size(), 1u);
  EXPECT_TRUE(same_span(SensesOf("first_name").token_senses[0],
                        Network().Senses("first_name")));
  ASSERT_EQ(SensesOf("movie_star").token_senses.size(), 2u);
  EXPECT_TRUE(same_span(SensesOf("movie_star").token_senses[0],
                        Network().Senses("movie")));
  EXPECT_TRUE(same_span(SensesOf("movie_star").token_senses[1],
                        Network().Senses("star")));
  EXPECT_FALSE(SensesOf("").has_senses());
}

TEST(LabelSensesTest, SenseCountSumsTokens) {
  EXPECT_EQ(SensesOf("star").sense_count(), Network().SenseCount("star"));
  EXPECT_EQ(SensesOf("movie_star").sense_count(),
            Network().SenseCount("movie") + Network().SenseCount("star"));
  // Senseless tokens add nothing; a wholly unknown label has none.
  EXPECT_EQ(SensesOf("star_zzqq").sense_count(),
            Network().SenseCount("star"));
  EXPECT_EQ(SensesOf("zzqq_xxyy").sense_count(), 0);
}

// LabelSpace's memoized senses and polysemy are the string path's,
// label for label and bit for bit: known lemmas, collocations, split
// compounds, compounds with senseless parts, unknown labels, and the
// empty label.
TEST(LabelSensesTest, MatchesStringOracle) {
  for (const char* label :
       {"head", "state", "genre", "wheelchair", "star", "movie_star",
        "first_name", "star_zzqq", "zzqq_xxyy", "zzunknownzz", "_star_",
        "head__state", ""}) {
    const LabelSenses& senses = SensesOf(label);
    EXPECT_EQ(Bits(senses.polysemy),
              Bits(oracles::AmbiguityPolysemy(Network(), label)))
        << label;
    std::vector<const std::vector<wordnet::ConceptId>*> expected;
    int expected_count = 0;
    for (const std::string& token :
         oracles::LabelSenseTokens(Network(), label)) {
      const auto& token_senses = Network().Senses(token);
      expected_count += Network().SenseCount(token);
      if (!token_senses.empty()) expected.push_back(&token_senses);
    }
    ASSERT_EQ(senses.token_senses.size(), expected.size()) << label;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(senses.token_senses[i].data(), expected[i]->data()) << label;
      EXPECT_EQ(senses.token_senses[i].size(), expected[i]->size()) << label;
    }
    EXPECT_EQ(senses.sense_count(), expected_count) << label;
  }
}

// Selection and Amb_Deg through LabelSpace equal the per-node string
// path on both Figure 5 shapes, under several weights and thresholds.
TEST(SelectTargetsTest, MatchesStringOracle) {
  const AmbiguityWeights configs[] = {
      {}, {1.0, 0.0, 0.0}, {0.2, 1.0, 0.0}, {0.6, 0.3, 0.8}};
  for (const LabeledTree& tree : {RichTree(), PoorTree()}) {
    for (const AmbiguityWeights& weights : configs) {
      for (double threshold : {0.0, 0.01, 0.05, 0.2, 0.9}) {
        EXPECT_EQ(SelectTargetNodes(tree, Labels(), threshold, weights),
                  oracles::SelectTargetNodes(tree, Network(), threshold,
                                             weights));
      }
      double sum = 0.0;
      for (NodeId id : tree.ids()) {
        const double reference =
            oracles::AmbiguityDegree(tree, id, Network(), weights);
        EXPECT_EQ(Bits(Degree(tree, id, weights)), Bits(reference));
        sum += reference;
      }
      EXPECT_EQ(Bits(AverageAmbiguityDegree(tree, Labels(), weights)),
                Bits(sum / static_cast<double>(tree.size())));
    }
  }
}

}  // namespace
}  // namespace xsdf::core
