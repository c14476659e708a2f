// Tests for sphere neighborhoods and context vectors (paper
// Definitions 4-7), including an exact check of the paper's Figure 7
// weights for the d=1 sphere of the Figure 6 tree. They check the
// string-keyed reference in tests/oracles/, which frontend_test holds
// the production id pipeline to bit for bit.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/context_vector.h"
#include "interned_tree.h"
#include "oracles/string_pipeline.h"
#include "wordnet/mini_wordnet.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {
namespace {

using oracles::BuildCompoundConceptSphere;
using oracles::BuildConceptSphere;
using oracles::BuildXmlSphere;
using oracles::ContextVector;
using oracles::Sphere;
using oracles::SphereMember;
using xml::kInvalidNode;
using xml::LabeledTree;
using xml::NodeId;
using xml::TreeNodeKind;

/// The paper's Figure 6 tree.
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

TEST(StructuralProximityTest, Equation7) {
  // Struct(x_i, S_d(x)) = 1 - Dist/(d+1).
  EXPECT_DOUBLE_EQ(StructuralProximity(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(StructuralProximity(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(StructuralProximity(1, 2), 1.0 - 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(StructuralProximity(2, 2), 1.0 - 2.0 / 3.0);
  // The farthest ring keeps a non-null weight (the paper's +1 shift).
  EXPECT_GT(StructuralProximity(4, 4), 0.0);
}

TEST(XmlSphereTest, Definition5Membership) {
  LabeledTree tree = Figure6Tree();
  Sphere s1 = BuildXmlSphere(tree, 2, 1);
  // Center (cast) + picture + star + star.
  EXPECT_EQ(s1.size(), 4);
  Sphere s2 = BuildXmlSphere(tree, 2, 2);
  EXPECT_EQ(s2.size(), 8);  // whole tree
  // Distances recorded per member.
  int at_zero = 0;
  for (const SphereMember& member : s2.members) {
    if (member.distance == 0) ++at_zero;
    EXPECT_LE(member.distance, 2);
  }
  EXPECT_EQ(at_zero, 1);
}

TEST(ContextVectorTest, Figure7ExactWeightsAtRadius1) {
  // Paper Figure 7: V_1(T[2]) = {cast: 0.4, picture: 0.2, star: 0.4}.
  LabeledTree tree = Figure6Tree();
  ContextVector vector(BuildXmlSphere(tree, 2, 1));
  EXPECT_DOUBLE_EQ(vector.Weight("cast"), 0.4);
  EXPECT_DOUBLE_EQ(vector.Weight("picture"), 0.2);
  EXPECT_DOUBLE_EQ(vector.Weight("star"), 0.4);
  EXPECT_EQ(vector.dimension_count(), 3u);
  EXPECT_DOUBLE_EQ(vector.Weight("missing"), 0.0);
}

TEST(ContextVectorTest, Figure7ProportionsAtRadius2) {
  // With the sphere cardinality convention fixed to include the
  // center, the paper's d=2 column is reproduced up to one constant
  // factor (the printed table uses |S|=7 there; see DESIGN.md). Check
  // the proportions, which is what disambiguation depends on.
  LabeledTree tree = Figure6Tree();
  ContextVector vector(BuildXmlSphere(tree, 2, 2));
  double cast = vector.Weight("cast");
  EXPECT_NEAR(vector.Weight("star") / cast, 0.3334 / 0.25, 1e-3);
  EXPECT_NEAR(vector.Weight("picture") / cast, 0.1667 / 0.25, 1e-3);
  EXPECT_NEAR(vector.Weight("films") / cast, 0.0835 / 0.25, 2e-3);
  EXPECT_NEAR(vector.Weight("kelly"), vector.Weight("stewart"), 1e-12);
  EXPECT_NEAR(vector.Weight("kelly"), vector.Weight("plot"), 1e-12);
}

TEST(ContextVectorTest, Assumption5CloserNodesWeighMore) {
  LabeledTree tree = Figure6Tree();
  ContextVector vector(BuildXmlSphere(tree, 2, 2));
  // picture (distance 1) outweighs films (distance 2).
  EXPECT_GT(vector.Weight("picture"), vector.Weight("films"));
}

TEST(ContextVectorTest, Assumption6RepeatedLabelsWeighMore) {
  LabeledTree tree = Figure6Tree();
  ContextVector vector(BuildXmlSphere(tree, 2, 1));
  // star occurs twice at distance 1, picture once: w(star)=2*w(picture).
  EXPECT_DOUBLE_EQ(vector.Weight("star"), 2.0 * vector.Weight("picture"));
}

TEST(ContextVectorTest, WeightsAreCapped) {
  LabeledTree tree = Figure6Tree();
  for (int radius : {1, 2, 3, 4}) {
    ContextVector vector(BuildXmlSphere(tree, 2, radius));
    for (const auto& [label, weight] : vector.weights()) {
      EXPECT_GT(weight, 0.0) << label;
      EXPECT_LE(weight, 1.0) << label;
    }
  }
}

TEST(ContextVectorTest, UniformProximityIgnoresDistance) {
  LabeledTree tree = Figure6Tree();
  ContextVector bag(BuildXmlSphere(tree, 2, 2), true);
  // Bag-of-words: picture (distance 1) and films (distance 2) weigh
  // the same.
  EXPECT_DOUBLE_EQ(bag.Weight("picture"), bag.Weight("films"));
}

TEST(ContextVectorTest, EmptyVector) {
  ContextVector vector;
  EXPECT_EQ(vector.dimension_count(), 0u);
  EXPECT_DOUBLE_EQ(vector.Cosine(vector), 0.0);
}

TEST(CosineTest, IdenticalVectorsScoreOne) {
  LabeledTree tree = Figure6Tree();
  ContextVector vector(BuildXmlSphere(tree, 2, 1));
  EXPECT_NEAR(vector.Cosine(vector), 1.0, 1e-12);
}

TEST(CosineTest, DisjointVectorsScoreZero) {
  testutil::InternedTree a;
  a.Add(kInvalidNode, "alpha", TreeNodeKind::kElement);
  testutil::InternedTree b;
  b.Add(kInvalidNode, "beta", TreeNodeKind::kElement);
  ContextVector va(BuildXmlSphere(a.Finish(), 0, 1));
  ContextVector vb(BuildXmlSphere(b.Finish(), 0, 1));
  EXPECT_DOUBLE_EQ(va.Cosine(vb), 0.0);
}

TEST(CosineTest, SymmetricAndBounded) {
  LabeledTree tree = Figure6Tree();
  ContextVector v1(BuildXmlSphere(tree, 2, 1));
  ContextVector v2(BuildXmlSphere(tree, 1, 2));
  EXPECT_DOUBLE_EQ(v1.Cosine(v2), v2.Cosine(v1));
  EXPECT_GE(v1.Cosine(v2), 0.0);
  EXPECT_LE(v1.Cosine(v2), 1.0);
}

TEST(JaccardTest, IdenticalVectorsScoreOne) {
  LabeledTree tree = Figure6Tree();
  ContextVector vector(BuildXmlSphere(tree, 2, 1));
  EXPECT_NEAR(vector.Jaccard(vector), 1.0, 1e-12);
}

TEST(JaccardTest, DisjointVectorsScoreZero) {
  testutil::InternedTree a;
  a.Add(kInvalidNode, "alpha", TreeNodeKind::kElement);
  testutil::InternedTree b;
  b.Add(kInvalidNode, "beta", TreeNodeKind::kElement);
  ContextVector va(BuildXmlSphere(a.Finish(), 0, 1));
  ContextVector vb(BuildXmlSphere(b.Finish(), 0, 1));
  EXPECT_DOUBLE_EQ(va.Jaccard(vb), 0.0);
}

TEST(JaccardTest, SymmetricBoundedAndBelowCosine) {
  LabeledTree tree = Figure6Tree();
  ContextVector v1(BuildXmlSphere(tree, 2, 1));
  ContextVector v2(BuildXmlSphere(tree, 1, 2));
  EXPECT_DOUBLE_EQ(v1.Jaccard(v2), v2.Jaccard(v1));
  EXPECT_GE(v1.Jaccard(v2), 0.0);
  EXPECT_LE(v1.Jaccard(v2), 1.0);
}

// ---- Concept spheres over the semantic network ---------------------------

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

TEST(ConceptSphereTest, RingsFollowSemanticRelations) {
  auto id = wordnet::MiniWordNetConceptByKey("actor.n");
  ASSERT_TRUE(id.ok());
  Sphere sphere = BuildConceptSphere(Network(), *id, 1);
  // Distance-1 members: performer (hypernym), actress/star (hyponyms)...
  ASSERT_GT(sphere.size(), 3);
  bool performer = false;
  for (const SphereMember& member : sphere.members) {
    if (member.label == "performer" && member.distance == 1) {
      performer = true;
    }
  }
  EXPECT_TRUE(performer);
}

TEST(ConceptSphereTest, GrowsWithRadius) {
  auto id = wordnet::MiniWordNetConceptByKey("movie.n");
  ASSERT_TRUE(id.ok());
  int previous = 0;
  for (int radius : {1, 2, 3}) {
    Sphere sphere = BuildConceptSphere(Network(), *id, radius);
    EXPECT_GT(sphere.size(), previous);
    previous = sphere.size();
  }
}

TEST(CompoundConceptSphereTest, UnionKeepsSmallestDistance) {
  auto p = wordnet::MiniWordNetConceptByKey("movie.n");
  auto q = wordnet::MiniWordNetConceptByKey("star.performer.n");
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(q.ok());
  Sphere compound = BuildCompoundConceptSphere(Network(), *p, *q, 2);
  Sphere sp = BuildConceptSphere(Network(), *p, 2);
  Sphere sq = BuildConceptSphere(Network(), *q, 2);
  // Union is at least as large as the bigger sphere and at most the
  // sum.
  EXPECT_GE(compound.size(), std::max(sp.size(), sq.size()));
  EXPECT_LE(compound.size(), sp.size() + sq.size());
  // Both centers appear at distance 0.
  int centers = 0;
  for (const SphereMember& member : compound.members) {
    if (member.distance == 0) ++centers;
  }
  EXPECT_EQ(centers, 2);
}

}  // namespace
}  // namespace xsdf::core
