// Tests for the evaluation module: P/R/F metrics, Figure 9's radius
// rule, Pearson correlation, gold scoring, target-node sampling, and
// the simulated rater panel.

#include <gtest/gtest.h>

#include "core/disambiguator.h"
#include "core/streaming_builder.h"
#include "eval/experiment.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "eval/raters.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf::eval {
namespace {

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

/// The label space every tree and disambiguator in this file shares.
core::LabelSpace* Labels() {
  static core::LabelSpace* space = new core::LabelSpace(&Network());
  return space;
}

Result<xml::LabeledTree> ParseTree(const char* xml) {
  return core::BuildTreeStreaming(xml, Network(), xml::ParseOptions{},
                                  /*include_values=*/true, Labels());
}

core::DisambiguatorOptions SharedSpaceOptions() {
  core::DisambiguatorOptions options;
  options.label_space = Labels();
  return options;
}

TEST(MetricsTest, ComputePrfBasics) {
  PrfScores scores = ComputePrf(10, 8, 6);
  EXPECT_DOUBLE_EQ(scores.precision, 0.75);
  EXPECT_DOUBLE_EQ(scores.recall, 0.6);
  EXPECT_NEAR(scores.f_value, 2 * 0.75 * 0.6 / (0.75 + 0.6), 1e-12);
}

TEST(MetricsTest, ZeroDenominators) {
  PrfScores scores = ComputePrf(0, 0, 0);
  EXPECT_DOUBLE_EQ(scores.precision, 0.0);
  EXPECT_DOUBLE_EQ(scores.recall, 0.0);
  EXPECT_DOUBLE_EQ(scores.f_value, 0.0);
}

TEST(MetricsTest, PerfectScores) {
  PrfScores scores = ComputePrf(5, 5, 5);
  EXPECT_DOUBLE_EQ(scores.f_value, 1.0);
}

TEST(MetricsTest, CombinePoolsCounts) {
  PrfScores combined =
      CombinePrf({ComputePrf(10, 8, 6), ComputePrf(10, 10, 2)});
  EXPECT_EQ(combined.gold_total, 20);
  EXPECT_EQ(combined.attempted, 18);
  EXPECT_EQ(combined.correct, 8);
  EXPECT_DOUBLE_EQ(combined.precision, 8.0 / 18.0);
}

// The rule reads only concept-based cells of the asked group, picks the
// highest F and sends a tie to the smaller radius whatever the order
// of the cells.
TEST(Figure9RadiusTest, HighestConceptBasedFTiesToSmallerRadius) {
  auto cell = [](int group, int radius, core::DisambiguationProcess process,
                 int correct) {
    ConfigCell c;
    c.group = group;
    c.radius = radius;
    c.process = process;
    c.scores = ComputePrf(100, 100, correct);
    return c;
  };
  const auto kConcept = core::DisambiguationProcess::kConceptBased;
  const auto kContext = core::DisambiguationProcess::kContextBased;
  const std::vector<ConfigCell> cells = {
      cell(1, 4, kConcept, 70), cell(1, 3, kConcept, 70),
      cell(1, 2, kConcept, 60), cell(1, 1, kContext, 90),
      cell(2, 1, kConcept, 50), cell(2, 2, kConcept, 51),
      cell(3, 2, kContext, 80),
  };
  EXPECT_EQ(Figure9Radius(cells, 1), 3);
  EXPECT_EQ(Figure9Radius(cells, 2), 2);
  EXPECT_EQ(Figure9Radius(cells, 3), 0) << "no concept-based cell";
  EXPECT_EQ(Figure9Radius(cells, 4), 0) << "no cell at all";
}

TEST(PearsonTest, PerfectCorrelations) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0,
              1e-12);
}

TEST(PearsonTest, UncorrelatedNearZero) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 1, 2, 1, 2, 1, 2},
                                 {5, 5, 9, 9, 5, 5, 9, 9}),
              0.0, 0.01);
}

TEST(PearsonTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {2, 3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 2}, {1}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1}, {1}), 0.0);
}

TEST(GoldTest, ResolveGoldMapsKeys) {
  auto gold = ResolveGold({{"kelly", "grace_kelly.n"}});
  ASSERT_TRUE(gold.ok());
  EXPECT_EQ(Network().GetConcept(gold->at("kelly")).label(),
            "grace_kelly");
  EXPECT_FALSE(ResolveGold({{"x", "missing.key"}}).ok());
}

TEST(GoldTest, ScoreAgainstGoldCountsCorrectly) {
  const char* doc =
      "<films><picture><cast><star>Kelly</star></cast></picture></films>";
  auto tree = ParseTree(doc);
  ASSERT_TRUE(tree.ok());
  core::Disambiguator system(&Network(), SharedSpaceOptions());
  auto result = system.RunOnTree(*tree);
  ASSERT_TRUE(result.ok());
  auto gold = ResolveGold({{"kelly", "grace_kelly.n"},
                           {"star", "star.performer.n"},
                           {"cast", "cast.actors.n"},
                           {"zzmissing", "movie.n"}});
  ASSERT_TRUE(gold.ok());
  PrfScores scores = ScoreAgainstGold(*result, *gold);
  EXPECT_EQ(scores.gold_total, 3);  // zzmissing matches no node
  EXPECT_EQ(scores.attempted, 3);
  EXPECT_GE(scores.correct, 2);  // kelly and star at least
}

TEST(GoldTest, ScoreOnNodesRestrictsToSample) {
  const char* doc =
      "<films><picture><cast><star>Kelly</star></cast></picture></films>";
  auto tree = ParseTree(doc);
  core::Disambiguator system(&Network(), SharedSpaceOptions());
  auto result = system.RunOnTree(*tree);
  auto gold = ResolveGold(
      {{"kelly", "grace_kelly.n"}, {"cast", "cast.actors.n"}});
  ASSERT_TRUE(gold.ok());
  // Only score node 0 (films) — not in gold -> zero counts.
  PrfScores none = ScoreOnNodes(*result, *gold, {0});
  EXPECT_EQ(none.gold_total, 0);
  // The whole tree matches the plain scorer.
  std::vector<xml::NodeId> all;
  for (xml::NodeId id : result->tree.ids()) all.push_back(id);
  PrfScores full = ScoreOnNodes(*result, *gold, all);
  PrfScores reference = ScoreAgainstGold(*result, *gold);
  EXPECT_EQ(full.gold_total, reference.gold_total);
  EXPECT_EQ(full.correct, reference.correct);
}

TEST(GoldTest, SampleGoldNodesDeterministicAndBounded) {
  const char* doc =
      "<films><picture><cast><star>Kelly</star><star>Stewart</star>"
      "</cast><plot>mystery</plot></picture></films>";
  auto tree = ParseTree(doc);
  auto gold = ResolveGold({{"star", "star.performer.n"},
                           {"cast", "cast.actors.n"},
                           {"plot", "plot.story.n"},
                           {"kelly", "grace_kelly.n"},
                           {"stewart", "james_stewart.n"},
                           {"mystery", "mystery.story.n"}});
  ASSERT_TRUE(gold.ok());
  auto sample_a = SampleGoldNodes(*tree, *gold, 4, 3, 42);
  auto sample_b = SampleGoldNodes(*tree, *gold, 4, 3, 42);
  EXPECT_EQ(sample_a, sample_b);
  EXPECT_EQ(sample_a.size(), 4u);
  // Distinct nodes.
  for (size_t i = 1; i < sample_a.size(); ++i) {
    EXPECT_NE(sample_a[i - 1], sample_a[i]);
  }
  // Requesting more than available returns all gold-bearing nodes.
  auto sample_all = SampleGoldNodes(*tree, *gold, 100, 3, 42);
  EXPECT_EQ(sample_all.size(), 7u);  // 4 tags + 3 tokens carry gold
}

TEST(GoldTest, StructureBiasFavorsTags) {
  const char* doc =
      "<cast><star>Kelly</star><star>Stewart</star>"
      "<star>Hitchcock</star></cast>";
  auto tree = ParseTree(doc);
  auto gold = ResolveGold({{"star", "star.performer.n"},
                           {"kelly", "grace_kelly.n"},
                           {"stewart", "james_stewart.n"},
                           {"hitchcock", "alfred_hitchcock.n"}});
  ASSERT_TRUE(gold.ok());
  // With extreme bias the first picks should all be structure nodes.
  int token_hits = 0;
  for (int seed = 0; seed < 20; ++seed) {
    auto sample = SampleGoldNodes(*tree, *gold, 2, 1000000,
                                  static_cast<uint64_t>(seed));
    for (xml::NodeId id : sample) {
      if (tree->kind(id) == xml::TreeNodeKind::kToken) ++token_hits;
    }
  }
  EXPECT_EQ(token_hits, 0);
}

TEST(RatersTest, RatingsAreDeterministicAndBounded) {
  const char* doc =
      "<films><picture><cast><star>Kelly</star></cast></picture></films>";
  auto tree = ParseTree(doc);
  auto nodes = SampleRatableNodes(*tree, *Labels(), 5, 7);
  ASSERT_FALSE(nodes.empty());
  RaterPanelOptions options;
  auto a = SimulateHumanRatings(*tree, nodes, *Labels(), options, 11);
  auto b = SimulateHumanRatings(*tree, nodes, *Labels(), options, 11);
  EXPECT_EQ(a, b);
  for (double rating : a) {
    EXPECT_GE(rating, 0.0);
    EXPECT_LE(rating, 4.0);
  }
}

TEST(RatersTest, ClarityLowersRatings) {
  const char* doc =
      "<personnel><person><address><state>virginia</state></address>"
      "</person></personnel>";
  auto tree = ParseTree(doc);
  auto nodes = SampleRatableNodes(*tree, *Labels(), 10, 7);
  RaterPanelOptions opaque;
  opaque.context_clarity = 0.0;
  opaque.noise_sigma = 0.0;
  RaterPanelOptions transparent;
  transparent.context_clarity = 0.9;
  transparent.noise_sigma = 0.0;
  auto high = SimulateHumanRatings(*tree, nodes, *Labels(), opaque, 1);
  auto low =
      SimulateHumanRatings(*tree, nodes, *Labels(), transparent, 1);
  double sum_high = 0.0;
  double sum_low = 0.0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    sum_high += high[i];
    sum_low += low[i];
  }
  EXPECT_GT(sum_high, sum_low);
}

TEST(RatersTest, PolysemousNodesRatedHigherWithoutClarity) {
  const char* doc = "<x><head>y</head><wheelchair>z</wheelchair></x>";
  auto tree = ParseTree(doc);
  // Locate "head" (33 senses) and "wheelchair" (1 sense).
  xml::NodeId head = xml::kInvalidNode;
  xml::NodeId wheelchair = xml::kInvalidNode;
  for (xml::NodeId id : tree->ids()) {
    if (tree->label(id) == "head") head = id;
    if (tree->label(id) == "wheelchair") wheelchair = id;
  }
  RaterPanelOptions options;
  options.noise_sigma = 0.0;
  auto ratings = SimulateHumanRatings(*tree, {head, wheelchair},
                                      *Labels(), options, 5);
  EXPECT_GT(ratings[0], ratings[1]);
  EXPECT_DOUBLE_EQ(ratings[1], 0.0);  // monosemous -> unambiguous
}

TEST(RatersTest, SampleRatableNodesSkipsSenseless) {
  const char* doc = "<zzz><qqq>vvv</qqq></zzz>";
  auto tree = ParseTree(doc);
  EXPECT_TRUE(SampleRatableNodes(*tree, *Labels(), 5, 3).empty());
}

}  // namespace
}  // namespace xsdf::eval
