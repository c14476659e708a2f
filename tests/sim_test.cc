// Unit and property tests for the semantic similarity measures
// (paper Definition 9): Wu-Palmer (edge-based), Lin (node-based),
// normalized extended gloss overlap, their weighted combination, and
// the measure registry. Property sweeps check range, symmetry, and
// identity over sampled concept pairs of the mini-WordNet.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "oracles/legacy_similarity.h"
#include "sim/combined.h"
#include "sim/gloss_overlap.h"
#include "sim/lin.h"
#include "sim/measure.h"
#include "sim/resnik.h"
#include "sim/wu_palmer.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf::sim {
namespace {

using wordnet::ConceptId;
using wordnet::SemanticNetwork;

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

TEST(WuPalmerTest, IdenticalConceptsScoreOne) {
  WuPalmerMeasure measure;
  EXPECT_DOUBLE_EQ(measure.Similarity(Network(), Key("actor.n"),
                                      Key("actor.n")),
                   1.0);
}

TEST(WuPalmerTest, CloserPairsScoreHigher) {
  WuPalmerMeasure measure;
  // actor/actress are taxonomic neighbors; actor/calorie are unrelated
  // domains.
  double close = measure.Similarity(Network(), Key("actor.n"),
                                    Key("actress.n"));
  double medium = measure.Similarity(Network(), Key("actor.n"),
                                     Key("dancer.n"));
  double far = measure.Similarity(Network(), Key("actor.n"),
                                  Key("calorie.n"));
  EXPECT_GT(close, medium);
  EXPECT_GT(medium, far);
}

TEST(WuPalmerTest, MatchesClosedForm) {
  // actress -> actor (1 edge); LCS(actor, actress) = actor.
  const SemanticNetwork& network = Network();
  ConceptId actor = Key("actor.n");
  ConceptId actress = Key("actress.n");
  int depth = network.Depth(actor);
  WuPalmerMeasure measure;
  EXPECT_NEAR(measure.Similarity(network, actor, actress),
              2.0 * depth / (0.0 + 1.0 + 2.0 * depth), 1e-12);
}

TEST(WuPalmerTest, CrossPosIsZero) {
  WuPalmerMeasure measure;
  EXPECT_DOUBLE_EQ(measure.Similarity(Network(), Key("actor.n"),
                                      Key("direct.film.v")),
                   0.0);
}

TEST(LinTest, IdenticalConceptsScoreOne) {
  LinMeasure measure;
  EXPECT_DOUBLE_EQ(
      measure.Similarity(Network(), Key("movie.n"), Key("movie.n")), 1.0);
}

TEST(LinTest, InformativeSubsumersScoreHigher) {
  LinMeasure measure;
  double siblings = measure.Similarity(Network(), Key("comedy.n"),
                                       Key("tragedy.n"));
  double distant = measure.Similarity(Network(), Key("comedy.n"),
                                      Key("street.n"));
  EXPECT_GT(siblings, distant);
}

TEST(LinTest, RootSubsumerGivesNearZero) {
  LinMeasure measure;
  // Concepts meeting only at entity share almost no information.
  double sim = measure.Similarity(Network(), Key("calorie.n"),
                                  Key("actress.n"));
  EXPECT_LT(sim, 0.35);
}

TEST(GlossOverlapTest, IdenticalConceptsScoreOne) {
  GlossOverlapMeasure measure;
  EXPECT_DOUBLE_EQ(
      measure.Similarity(Network(), Key("plot.story.n"),
                         Key("plot.story.n")),
      1.0);
}

TEST(GlossOverlapTest, PhraseOverlapScoreSquaresPhraseLength) {
  // One shared 3-token phrase scores 9; three scattered shared tokens
  // score 3 — on the string oracle and on the id kernel alike.
  EXPECT_DOUBLE_EQ(oracles::PhraseOverlapScore({"a", "b", "c", "x"},
                                               {"y", "a", "b", "c"}),
                   9.0);
  EXPECT_DOUBLE_EQ(oracles::PhraseOverlapScore({"a", "q", "b", "r", "c"},
                                               {"c", "s", "a", "t", "b"}),
                   3.0);
  EXPECT_DOUBLE_EQ(oracles::PhraseOverlapScore({"a"}, {"b"}), 0.0);
  EXPECT_DOUBLE_EQ(oracles::PhraseOverlapScore({}, {"b"}), 0.0);
  const std::vector<uint32_t> a = {1, 2, 3, 9};
  const std::vector<uint32_t> b = {8, 1, 2, 3};
  EXPECT_DOUBLE_EQ(GlossOverlapMeasure::PhraseOverlapScoreIds(a, b), 9.0);
  const std::vector<uint32_t> c = {1, 4, 2, 5, 3};
  const std::vector<uint32_t> e = {3, 6, 1, 7, 2};
  EXPECT_DOUBLE_EQ(GlossOverlapMeasure::PhraseOverlapScoreIds(c, e), 3.0);
}

TEST(GlossOverlapTest, ExtendedGlossIncludesRelatedGlosses) {
  // The extended gloss of movie.n should mention tokens from its
  // hyponyms/hypernyms (e.g. "documentary" gloss words), not only its
  // own.
  EXPECT_GT(oracles::ExtendedGloss(Network(), Key("movie.n")).size(), 20u);
  EXPECT_GT(Network().GlossTokens(Key("movie.n")).size(), 20u);
}

TEST(GlossOverlapTest, RelatedConceptsOverlapMore) {
  GlossOverlapMeasure measure;
  double related = measure.Similarity(Network(), Key("movie.n"),
                                      Key("feature_film.n"));
  double unrelated = measure.Similarity(Network(), Key("movie.n"),
                                        Key("zip_code.n"));
  EXPECT_GT(related, unrelated);
}

TEST(ResnikTest, DeeperSubsumersScoreHigher) {
  ResnikMeasure measure;
  // comedy/tragedy meet at dramatic composition (informative);
  // comedy/street meet near the root (uninformative).
  double siblings = measure.Similarity(Network(), Key("comedy.n"),
                                       Key("tragedy.n"));
  double distant = measure.Similarity(Network(), Key("comedy.n"),
                                      Key("street.n"));
  EXPECT_GT(siblings, distant);
  EXPECT_GE(distant, 0.0);
  EXPECT_LE(siblings, 1.0);
}

TEST(ResnikTest, SubsumerOnlyNotLemmaDepths) {
  // Unlike Lin, Resnik depends only on the subsumer: two shallow
  // siblings and two deep siblings under the same parent score the
  // same subsumer IC.
  ResnikMeasure resnik;
  double a = resnik.Similarity(Network(), Key("comedy.n"),
                               Key("tragedy.n"));
  EXPECT_GT(a, 0.0);
}

TEST(CombinedTest, WeightsValidate) {
  EXPECT_TRUE(MeasureConfig::PaperHybrid().Validate().ok());
  EXPECT_FALSE(MeasureConfig::PaperHybrid(0.5, 0.5, 0.5).Validate().ok());
  EXPECT_FALSE(MeasureConfig::PaperHybrid(-0.5, 1.0, 0.5).Validate().ok());
  EXPECT_TRUE(MeasureConfig::PaperHybrid(1.0, 0.0, 0.0).Validate().ok());
}

TEST(CombinedTest, EqualsWeightedSumOfComponents) {
  const SemanticNetwork& network = Network();
  ConceptId a = Key("movie.n");
  ConceptId b = Key("play.drama.n");
  WuPalmerMeasure edge;
  LinMeasure node;
  GlossOverlapMeasure gloss;
  CombinedMeasure combined(MeasureConfig::PaperHybrid(0.5, 0.3, 0.2));
  double expected = 0.5 * edge.Similarity(network, a, b) +
                    0.3 * node.Similarity(network, a, b) +
                    0.2 * gloss.Similarity(network, a, b);
  EXPECT_NEAR(combined.Similarity(network, a, b), expected, 1e-12);
}

TEST(CombinedTest, IsSymmetric) {
  CombinedMeasure measure;
  const SemanticNetwork& network = Network();
  ConceptId a = Key("actor.n");
  ConceptId b = Key("movie.n");
  EXPECT_DOUBLE_EQ(measure.Similarity(network, a, b),
                   measure.Similarity(network, b, a));
}

TEST(CombinedTest, ComposesRegisteredMeasuresByName) {
  CombinedMeasure combined(
      *MeasureConfig::Parse("wu-palmer:0.5,gloss-overlap:0.5"));
  const SemanticNetwork& network = Network();
  ConceptId a = Key("actor.n");
  ConceptId b = Key("actress.n");
  WuPalmerMeasure edge;
  GlossOverlapMeasure gloss;
  double expected = 0.5 * edge.Similarity(network, a, b) +
                    0.5 * gloss.Similarity(network, a, b);
  EXPECT_NEAR(combined.Similarity(network, a, b), expected, 1e-12);
}

TEST(MeasureRegistryTest, BuiltInsPresent) {
  auto names = MeasureRegistry::Global().Names();
  EXPECT_EQ(names, (std::vector<std::string>{"conceptual-density",
                                             "gloss-overlap", "lin",
                                             "resnik", "wu-palmer"}));
}

TEST(MeasureRegistryTest, UserMeasuresCanRegister) {
  class ConstantMeasure : public SimilarityMeasure {
   public:
    double Similarity(const SemanticNetwork&, ConceptId,
                      ConceptId) const override {
      return 0.5;
    }
    std::string name() const override { return "constant"; }
  };
  MeasureRegistry registry;
  registry.Register("constant",
                    [] { return std::make_unique<ConstantMeasure>(); });
  auto measure = registry.Create("constant");
  ASSERT_TRUE(measure.ok());
  EXPECT_DOUBLE_EQ((*measure)->Similarity(Network(), 0, 1), 0.5);
  EXPECT_FALSE(registry.Create("missing").ok());
}

// ---- Property sweep over sampled concept pairs ---------------------------

class MeasurePropertyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(MeasurePropertyTest, RangeSymmetryIdentity) {
  auto measure = MeasureRegistry::Global().Create(GetParam());
  ASSERT_TRUE(measure.ok());
  const SemanticNetwork& network = Network();
  // Deterministic sample of concept pairs across the network.
  const size_t n = network.size();
  for (size_t i = 0; i < n; i += 23) {
    ConceptId a = static_cast<ConceptId>(i);
    // Identity.
    EXPECT_DOUBLE_EQ((*measure)->Similarity(network, a, a), 1.0)
        << GetParam() << " concept " << i;
    for (size_t j = i + 7; j < n; j += 97) {
      ConceptId b = static_cast<ConceptId>(j);
      double ab = (*measure)->Similarity(network, a, b);
      double ba = (*measure)->Similarity(network, b, a);
      EXPECT_GE(ab, 0.0) << GetParam();
      EXPECT_LE(ab, 1.0) << GetParam();
      EXPECT_DOUBLE_EQ(ab, ba) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, MeasurePropertyTest,
                         ::testing::Values("wu-palmer", "lin",
                                           "gloss-overlap", "resnik",
                                           "conceptual-density"));

// ---- MeasureConfig: the --measures grammar and its rejections ------------
// Every malformed spec must come back as a status (a CLI usage error),
// never a crash; satellite coverage for the end-to-end flag.

TEST(MeasureConfigTest, ParsesAndRoundTrips) {
  auto config = MeasureConfig::Parse("wu-palmer:0.5,lin:0.5");
  ASSERT_TRUE(config.ok());
  ASSERT_EQ(config->entries.size(), 2u);
  EXPECT_EQ(config->entries[0].first, "wu-palmer");
  EXPECT_DOUBLE_EQ(config->entries[0].second, 0.5);
  EXPECT_EQ(config->ToSpec(), "wu-palmer:0.5,lin:0.5");
  auto reparsed = MeasureConfig::Parse(config->ToSpec());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, *config);
}

TEST(MeasureConfigTest, ParseNormalizesNearMissSums) {
  auto config = MeasureConfig::Parse(
      "wu-palmer:0.333333,lin:0.333333,gloss-overlap:0.333333");
  ASSERT_TRUE(config.ok());
  double total = 0.0;
  for (const auto& [name, weight] : config->entries) total += weight;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MeasureConfigTest, RejectsEmptyString) {
  EXPECT_FALSE(MeasureConfig::Parse("").ok());
}

TEST(MeasureConfigTest, RejectsUnknownName) {
  auto config = MeasureConfig::Parse("no-such-measure:1.0");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kNotFound);
}

TEST(MeasureConfigTest, RejectsNegativeWeight) {
  EXPECT_FALSE(MeasureConfig::Parse("wu-palmer:-0.5,lin:1.5").ok());
}

TEST(MeasureConfigTest, RejectsNonNormalizedSum) {
  EXPECT_FALSE(MeasureConfig::Parse("wu-palmer:0.5,lin:0.6").ok());
  EXPECT_FALSE(MeasureConfig::Parse("wu-palmer:0.2,lin:0.2").ok());
}

TEST(MeasureConfigTest, RejectsDuplicateNames) {
  EXPECT_FALSE(MeasureConfig::Parse("lin:0.5,lin:0.5").ok());
}

TEST(MeasureConfigTest, RejectsMalformedItems) {
  EXPECT_FALSE(MeasureConfig::Parse("wu-palmer").ok());
  EXPECT_FALSE(MeasureConfig::Parse("wu-palmer:").ok());
  EXPECT_FALSE(MeasureConfig::Parse(":1.0").ok());
  EXPECT_FALSE(MeasureConfig::Parse("wu-palmer:abc").ok());
  EXPECT_FALSE(MeasureConfig::Parse("wu-palmer:0.5,,lin:0.5").ok());
  EXPECT_FALSE(MeasureConfig::Parse("wu-palmer:nan").ok());
}

TEST(MeasureConfigTest, FingerprintSeparatesCompositions) {
  auto hybrid = MeasureConfig::PaperHybrid();
  auto density = *MeasureConfig::Parse("conceptual-density:1");
  auto wu = *MeasureConfig::Parse("wu-palmer:1");
  // Same weights, different names; same entries, different order.
  auto ab = *MeasureConfig::Parse("wu-palmer:0.5,lin:0.5");
  auto cb = *MeasureConfig::Parse("resnik:0.5,lin:0.5");
  auto ba = *MeasureConfig::Parse("lin:0.5,wu-palmer:0.5");
  EXPECT_NE(hybrid.Fingerprint(), density.Fingerprint());
  EXPECT_NE(density.Fingerprint(), wu.Fingerprint());
  EXPECT_NE(ab.Fingerprint(), cb.Fingerprint());
  EXPECT_NE(ab.Fingerprint(), ba.Fingerprint());
  EXPECT_EQ(ab.Fingerprint(),
            MeasureConfig::Parse("wu-palmer:0.5,lin:0.5")->Fingerprint());
}

TEST(MeasureConfigTest, CombinedDefaultIsThePaperHybrid) {
  const SemanticNetwork& network = Network();
  CombinedMeasure by_default;
  CombinedMeasure by_config{MeasureConfig::PaperHybrid()};
  ConceptId a = Key("actor.n");
  ConceptId b = Key("actress.n");
  EXPECT_DOUBLE_EQ(by_default.Similarity(network, a, b),
                   by_config.Similarity(network, a, b));
  EXPECT_EQ(by_default.config(), MeasureConfig::PaperHybrid());
  EXPECT_EQ(by_default.config().Fingerprint(),
            MeasureConfig::PaperHybrid().Fingerprint());
}

}  // namespace
}  // namespace xsdf::sim
