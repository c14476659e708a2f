// Unit tests for the rooted ordered labeled tree (paper Definition 1):
// construction by the front end, preorder ids, attribute ordering,
// distances, rings, root paths, subtrees, and shape statistics.

#include <gtest/gtest.h>

#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "interned_tree.h"
#include "oracles/graph_walks.h"
#include "wordnet/mini_wordnet.h"
#include "xml/labeled_tree.h"
#include "xml/parser.h"
#include "xml/tree_stats.h"

namespace xsdf::xml {
namespace {

/// The paper's Figure 6 example tree:
/// films(0) -> picture(1) -> { cast(2) -> star(3) -> stewart(4),
///                                         star(5) -> kelly(6),
///                             plot(7) }
LabeledTree Figure6Tree() {
  testutil::InternedTree tree;
  NodeId films = tree.Add(kInvalidNode, "films",
                              TreeNodeKind::kElement);
  NodeId picture = tree.Add(films, "picture", TreeNodeKind::kElement);
  NodeId cast = tree.Add(picture, "cast", TreeNodeKind::kElement);
  NodeId star1 = tree.Add(cast, "star", TreeNodeKind::kElement);
  tree.Add(star1, "stewart", TreeNodeKind::kToken);
  NodeId star2 = tree.Add(cast, "star", TreeNodeKind::kElement);
  tree.Add(star2, "kelly", TreeNodeKind::kToken);
  tree.Add(picture, "plot", TreeNodeKind::kElement);
  return tree.Finish();
}

TEST(LabeledTreeTest, PreorderIdsAndDepths) {
  LabeledTree tree = Figure6Tree();
  ASSERT_EQ(tree.size(), 8u);
  EXPECT_EQ(tree.root(), 0);
  EXPECT_EQ(tree.label(0), "films");
  EXPECT_EQ(tree.depth(0), 0);
  EXPECT_EQ(tree.label(2), "cast");
  EXPECT_EQ(tree.depth(2), 2);
  EXPECT_EQ(tree.label(4), "stewart");
  EXPECT_EQ(tree.depth(4), 4);
  EXPECT_EQ(tree.label(7), "plot");
}

TEST(LabeledTreeTest, FanOutAndDensity) {
  LabeledTree tree = Figure6Tree();
  EXPECT_EQ(tree.fan_out(2), 2);           // cast has 2 children
  EXPECT_EQ(tree.DistinctChildLabelCount(2), 1);  // both labelled "star"
  EXPECT_EQ(tree.fan_out(1), 2);           // picture: cast, plot
  EXPECT_EQ(tree.DistinctChildLabelCount(1), 2);
  EXPECT_EQ(tree.MaxDepth(), 4);
  EXPECT_EQ(tree.MaxFanOut(), 2);
  EXPECT_EQ(tree.MaxDensity(), 2);
}

// Distance, LowestCommonAncestor and Rings are the test-only walks of
// oracles/graph_walks.h that the sphere tests hold BuildXmlIdSphere to.
TEST(LabeledTreeTest, DistanceMatchesPaperExample) {
  LabeledTree tree = Figure6Tree();
  // Paper: Dist(T[2], T[6]) between "cast" and "kelly" equals 2.
  EXPECT_EQ(oracles::Distance(tree, 2, 6), 2);
  EXPECT_EQ(oracles::Distance(tree, 2, 2), 0);
  EXPECT_EQ(oracles::Distance(tree, 0, 4), 4);
  EXPECT_EQ(oracles::Distance(tree, 4, 6), 4);  // stewart <-> kelly via cast
  EXPECT_EQ(oracles::Distance(tree, 7, 3), 3);  // plot <-> star via picture
  // Symmetry.
  EXPECT_EQ(oracles::Distance(tree, 6, 2), oracles::Distance(tree, 2, 6));
}

TEST(LabeledTreeTest, LowestCommonAncestor) {
  LabeledTree tree = Figure6Tree();
  EXPECT_EQ(oracles::LowestCommonAncestor(tree, 4, 6), 2);  // cast
  EXPECT_EQ(oracles::LowestCommonAncestor(tree, 3, 7), 1);  // picture
  EXPECT_EQ(oracles::LowestCommonAncestor(tree, 0, 5), 0);  // root, descendant
}

TEST(LabeledTreeTest, RingsMatchPaperExample) {
  LabeledTree tree = Figure6Tree();
  // Paper: R_1(T[2]) = {picture(1), star(3), star(5)};
  //        R_2(T[2]) = {films(0), stewart(4), kelly(6), plot(7)}.
  auto rings = oracles::Rings(tree, 2, 2);
  ASSERT_EQ(rings.size(), 3u);
  EXPECT_EQ(rings[0], (std::vector<NodeId>{2}));
  EXPECT_EQ(rings[1], (std::vector<NodeId>{1, 3, 5}));
  EXPECT_EQ(rings[2], (std::vector<NodeId>{0, 4, 6, 7}));
}

TEST(LabeledTreeTest, RingsExhaustTree) {
  LabeledTree tree = Figure6Tree();
  auto rings = oracles::Rings(tree, 2, 10);
  size_t total = 0;
  for (const auto& ring : rings) total += ring.size();
  EXPECT_EQ(total, tree.size());  // every node in exactly one ring
  EXPECT_TRUE(rings[10].empty());
}

TEST(LabeledTreeTest, RootPath) {
  LabeledTree tree = Figure6Tree();
  EXPECT_EQ(tree.RootPath(6), (std::vector<NodeId>{0, 1, 2, 5, 6}));
  EXPECT_EQ(tree.RootPath(0), (std::vector<NodeId>{0}));
}

TEST(LabeledTreeTest, SubtreePreorder) {
  LabeledTree tree = Figure6Tree();
  EXPECT_EQ(tree.Subtree(2), (std::vector<NodeId>{2, 3, 4, 5, 6}));
  EXPECT_EQ(tree.Subtree(7), (std::vector<NodeId>{7}));
  EXPECT_EQ(tree.Subtree(0).size(), tree.size());
}

TEST(LabeledTreeTest, EveryNodeNeedsALabelId) {
  LabeledTreeBuilder builder;
  NodeId id = 0;
  EXPECT_DEBUG_DEATH(
      id = builder.AddNode(kInvalidNode, "films", kNoLabelId,
                           TreeNodeKind::kElement),
      "label id");
#ifdef NDEBUG
  EXPECT_EQ(id, kInvalidNode);
  EXPECT_TRUE(builder.empty());
#endif
}

TEST(LabeledTreeTest, ValidateAuditsTheIdLabelBijection) {
  EXPECT_TRUE(Figure6Tree().Validate().ok());

  // Two labels under one id: the tree stores one spelling per id, so
  // the builder refuses the second spelling.
  LabeledTreeBuilder shared_id;
  shared_id.AddNode(kInvalidNode, "films", 0, TreeNodeKind::kElement);
  NodeId id = 0;
  EXPECT_DEBUG_DEATH(
      id = shared_id.AddNode(0, "picture", 0, TreeNodeKind::kElement),
      "spelling");
#ifdef NDEBUG
  EXPECT_EQ(id, kInvalidNode);
  EXPECT_EQ(shared_id.size(), 1u);
#endif

  LabeledTreeBuilder split_label;  // one label under two ids
  split_label.AddNode(kInvalidNode, "star", 0, TreeNodeKind::kElement);
  split_label.AddNode(0, "star", 1, TreeNodeKind::kElement);
  EXPECT_FALSE(split_label.Finish().Validate().ok());
}

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto built = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(built).value());
  }();
  return *network;
}

Result<LabeledTree> Build(const std::string& xml, core::LabelSpace* space,
                          bool include_values = true) {
  return core::BuildTreeStreaming(xml, Network(), ParseOptions{},
                                  include_values, space);
}

TEST(BuildTreeStreamingTest, FromDocument) {
  core::LabelSpace space(&Network());
  auto tree = Build("<films><picture><cast><star>Stewart</star>"
                    "<star>Kelly</star></cast><plot>spies</plot>"
                    "</picture></films>",
                    &space);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 9u);  // 6 elements + 3 value tokens
  EXPECT_EQ(tree->label(0), "film");  // stemmed against the lexicon
  EXPECT_EQ(tree->raw(0), "films");
  EXPECT_EQ(tree->kind(0), TreeNodeKind::kElement);
  // Ids come from the label space, which the tree records.
  EXPECT_TRUE(tree->Validate().ok());
  EXPECT_EQ(tree->label_id(0), space.Find("film"));
  EXPECT_EQ(tree->label_id(3), tree->label_id(5));  // both "star"
  EXPECT_EQ(tree->label_source(), space.serial());
}

TEST(BuildTreeStreamingTest, AttributesSortedBeforeElements) {
  core::LabelSpace space(&Network());
  auto tree = Build("<m zeta=\"zebra\" alpha=\"apple\"><child/></m>",
                    &space);
  ASSERT_TRUE(tree.ok());
  // Order: m(0), alpha(1), apple(2 token), zeta(3), zebra(4 token),
  // child(5).
  ASSERT_EQ(tree->size(), 6u);
  EXPECT_EQ(tree->label(1), "alpha");
  EXPECT_EQ(tree->kind(1), TreeNodeKind::kAttribute);
  EXPECT_EQ(tree->label(2), "apple");
  EXPECT_EQ(tree->kind(2), TreeNodeKind::kToken);
  EXPECT_EQ(tree->parent(2), 1);
  EXPECT_EQ(tree->label(3), "zeta");
  EXPECT_EQ(tree->label(4), "zebra");
  EXPECT_EQ(tree->label(5), "child");
  EXPECT_EQ(tree->kind(5), TreeNodeKind::kElement);
  EXPECT_EQ(tree->parent(5), 0);
}

TEST(BuildTreeStreamingTest, StructureOnlySkipsValues) {
  core::LabelSpace space(&Network());
  auto tree = Build("<m year=\"1954\"><name>Rear Window</name></m>", &space,
                    /*include_values=*/false);
  ASSERT_TRUE(tree.ok());
  for (xml::NodeId id : tree->ids()) {
    EXPECT_NE(tree->kind(id), TreeNodeKind::kToken);
  }
  EXPECT_EQ(tree->size(), 3u);  // m, year, name
}

TEST(BuildTreeStreamingTest, RejectsEmptyDocument) {
  core::LabelSpace space(&Network());
  EXPECT_FALSE(Build("", &space).ok());
  EXPECT_FALSE(Build("<?xml version=\"1.0\"?>", &space).ok());
  EXPECT_EQ(Build("<a/>", nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TreeStatsTest, ComputeTreeShape) {
  LabeledTree tree = Figure6Tree();
  TreeShape shape = ComputeTreeShape(tree);
  EXPECT_EQ(shape.node_count, 8);
  EXPECT_EQ(shape.max_depth, 4);
  EXPECT_EQ(shape.max_fan_out, 2);
  EXPECT_EQ(shape.max_density, 2);
  EXPECT_NEAR(shape.avg_depth, (0 + 1 + 2 + 3 + 4 + 3 + 4 + 2) / 8.0,
              1e-9);
  EXPECT_NEAR(shape.avg_fan_out, 7.0 / 8.0, 1e-9);
}

TEST(TreeStatsTest, StructDegreeRangeAndMonotonicity) {
  LabeledTree tree = Figure6Tree();
  for (xml::NodeId id : tree.ids()) {
    double degree = StructDegree(tree, id);
    EXPECT_GE(degree, 0.0);
    EXPECT_LE(degree, 1.0);
  }
  // The deepest leaf outranks the root on the depth component alone.
  StructDegreeWeights depth_only{1.0, 0.0, 0.0};
  EXPECT_GT(StructDegree(tree, 4, depth_only),
            StructDegree(tree, 0, depth_only));
  // The root outranks a leaf on the density component alone: films has
  // one distinct child label, leaves have none.
  StructDegreeWeights density_only{0.0, 0.0, 1.0};
  EXPECT_GT(StructDegree(tree, 0, density_only),
            StructDegree(tree, 4, density_only));
}

TEST(TreeStatsTest, AverageStructDegreeInRange) {
  LabeledTree tree = Figure6Tree();
  double avg = AverageStructDegree(tree);
  EXPECT_GT(avg, 0.0);
  EXPECT_LT(avg, 1.0);
}

TEST(TreeStatsTest, SingleNodeTree) {
  testutil::InternedTree builder;
  builder.Add(kInvalidNode, "only", TreeNodeKind::kElement);
  const LabeledTree tree = builder.Finish();
  EXPECT_EQ(tree.MaxDepth(), 0);
  EXPECT_EQ(ComputeTreeShape(tree).node_count, 1);
  EXPECT_EQ(AverageStructDegree(tree), 0.0);
  EXPECT_EQ(oracles::Rings(tree, 0, 3)[1].size(), 0u);
}

}  // namespace
}  // namespace xsdf::xml
