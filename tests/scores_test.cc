// Tests for candidate enumeration and the disambiguation scores
// (paper Definitions 8-10, Eqs. 8-13), including the compound special
// cases. They check the string-keyed reference in tests/oracles/, which
// frontend_test holds the production id pipeline to bit for bit.

#include <gtest/gtest.h>

#include "core/scores.h"
#include "core/tree_builder.h"
#include "interned_tree.h"
#include "oracles/string_pipeline.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf::core {
namespace {

using oracles::BuildXmlSphere;
using oracles::CombinedScore;
using oracles::ConceptScore;
using oracles::ContextScore;
using oracles::ContextVector;
using oracles::EnumerateCandidates;
using oracles::Sphere;
using wordnet::ConceptId;
using wordnet::SemanticNetwork;
using xml::kInvalidNode;
using xml::LabeledTree;
using xml::NodeId;
using xml::TreeNodeKind;

const SemanticNetwork& Network() {
  static const SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

ConceptId Key(const char* key) {
  auto id = wordnet::MiniWordNetConceptByKey(key);
  EXPECT_TRUE(id.ok()) << key;
  return *id;
}

LabeledTree MovieTree() {
  testutil::InternedTree tree;
  NodeId films = tree.Add(kInvalidNode, "film",
                              TreeNodeKind::kElement);
  NodeId picture = tree.Add(films, "picture", TreeNodeKind::kElement);
  NodeId cast = tree.Add(picture, "cast", TreeNodeKind::kElement);
  NodeId star1 = tree.Add(cast, "star", TreeNodeKind::kElement);
  tree.Add(star1, "stewart", TreeNodeKind::kToken);
  NodeId star2 = tree.Add(cast, "star", TreeNodeKind::kElement);
  tree.Add(star2, "kelly", TreeNodeKind::kToken);
  NodeId director = tree.Add(picture, "director",
                                 TreeNodeKind::kElement);
  tree.Add(director, "hitchcock", TreeNodeKind::kToken);
  return tree.Finish();
}

TEST(EnumerateCandidatesTest, SimpleLabel) {
  auto candidates = EnumerateCandidates(Network(), "star");
  EXPECT_EQ(candidates.size(),
            static_cast<size_t>(Network().SenseCount("star")));
  for (const SenseCandidate& candidate : candidates) {
    EXPECT_FALSE(candidate.is_compound());
  }
}

TEST(EnumerateCandidatesTest, UnknownLabelEmpty) {
  EXPECT_TRUE(EnumerateCandidates(Network(), "zzz_unknown").empty());
}

TEST(EnumerateCandidatesTest, LexiconCollocationStaysSimple) {
  auto candidates = EnumerateCandidates(Network(), "first_name");
  ASSERT_FALSE(candidates.empty());
  EXPECT_FALSE(candidates[0].is_compound());
}

TEST(EnumerateCandidatesTest, CompoundCartesianProduct) {
  auto candidates = EnumerateCandidates(Network(), "movie_star");
  size_t movie = static_cast<size_t>(Network().SenseCount("movie"));
  size_t star = static_cast<size_t>(Network().SenseCount("star"));
  EXPECT_EQ(candidates.size(), movie * star);
  for (const SenseCandidate& candidate : candidates) {
    EXPECT_TRUE(candidate.is_compound());
  }
}

TEST(EnumerateCandidatesTest, CompoundWithOneSenselessToken) {
  // "zz" has no senses; the compound degenerates to the other token.
  auto candidates = EnumerateCandidates(Network(), "zz_star");
  EXPECT_EQ(candidates.size(),
            static_cast<size_t>(Network().SenseCount("star")));
  EXPECT_FALSE(candidates[0].is_compound());
}

TEST(ConceptScoreTest, RangeAndDiscrimination) {
  LabeledTree tree = MovieTree();
  Sphere sphere = BuildXmlSphere(tree, 3, 2);  // around first "star"
  ContextVector vector(sphere);
  sim::CombinedMeasure measure;
  double performer = ConceptScore(
      Network(), measure, {Key("star.performer.n"), wordnet::kInvalidConcept},
      sphere, vector);
  double celestial = ConceptScore(
      Network(), measure, {Key("star.celestial.n"), wordnet::kInvalidConcept},
      sphere, vector);
  EXPECT_GE(performer, 0.0);
  EXPECT_LE(performer, 1.0);
  // Surrounded by cast/director/kelly/stewart, the performer sense
  // must beat the celestial body.
  EXPECT_GT(performer, celestial);
}

TEST(ConceptScoreTest, EmptySphereScoresZero) {
  testutil::InternedTree tree;
  tree.Add(kInvalidNode, "star", TreeNodeKind::kElement);
  Sphere sphere = BuildXmlSphere(tree.Finish(), 0, 2);  // only the center
  ContextVector vector(sphere);
  sim::CombinedMeasure measure;
  EXPECT_DOUBLE_EQ(
      ConceptScore(Network(), measure,
                   {Key("star.performer.n"), wordnet::kInvalidConcept},
                   sphere, vector),
      0.0);
}

TEST(ConceptScoreTest, CompoundCandidateAveragesPair) {
  LabeledTree tree = MovieTree();
  Sphere sphere = BuildXmlSphere(tree, 3, 2);
  ContextVector vector(sphere);
  sim::CombinedMeasure measure;
  SenseCandidate compound{Key("movie.n"), Key("star.performer.n")};
  double score = ConceptScore(Network(), measure, compound, sphere,
                              vector);
  EXPECT_GT(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(ContextScoreTest, MatchingDomainsScoreHigher) {
  LabeledTree tree = MovieTree();
  Sphere sphere = BuildXmlSphere(tree, 3, 2);
  ContextVector vector(sphere);
  double performer = ContextScore(
      Network(), {Key("star.performer.n"), wordnet::kInvalidConcept},
      vector, 2);
  double celestial = ContextScore(
      Network(), {Key("star.celestial.n"), wordnet::kInvalidConcept},
      vector, 2);
  EXPECT_GE(performer, 0.0);
  EXPECT_LE(performer, 1.0);
  EXPECT_GT(performer, celestial);
}

TEST(ContextScoreTest, CompoundUsesUnionSphere) {
  LabeledTree tree = MovieTree();
  ContextVector vector(BuildXmlSphere(tree, 3, 2));
  SenseCandidate compound{Key("movie.n"), Key("star.performer.n")};
  double score = ContextScore(Network(), compound, vector, 2);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(CombinedScoreTest, Equation13Blend) {
  LabeledTree tree = MovieTree();
  Sphere sphere = BuildXmlSphere(tree, 3, 2);
  ContextVector vector(sphere);
  sim::CombinedMeasure measure;
  SenseCandidate candidate{Key("star.performer.n"),
                           wordnet::kInvalidConcept};
  double concept_score =
      ConceptScore(Network(), measure, candidate, sphere, vector);
  double context_score = ContextScore(Network(), candidate, vector, 2);
  double blended = CombinedScore(Network(), measure, candidate, sphere,
                                 vector, 2, {0.6, 0.4});
  EXPECT_NEAR(blended, 0.6 * concept_score + 0.4 * context_score, 1e-12);
  // Degenerate weights reduce to the individual scores.
  EXPECT_NEAR(CombinedScore(Network(), measure, candidate, sphere,
                            vector, 2, {1.0, 0.0}),
              concept_score, 1e-12);
  EXPECT_NEAR(CombinedScore(Network(), measure, candidate, sphere,
                            vector, 2, {0.0, 1.0}),
              context_score, 1e-12);
}

}  // namespace
}  // namespace xsdf::core
