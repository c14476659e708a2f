// Integration tests: the full experiment pipeline over the generated
// corpus, asserting the reproduced shapes of the paper's evaluation
// (Tables 1-3, Figures 8-9) at the level the reproduction claims.

#include <gtest/gtest.h>

#include <map>

#include "eval/experiment.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf::eval {
namespace {

class ExperimentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto network = wordnet::BuildMiniWordNet();
    ASSERT_TRUE(network.ok());
    network_ = new wordnet::SemanticNetwork(std::move(network).value());
    labels_ = new core::LabelSpace(network_);
    auto corpus = BuildCorpus(*network_, labels_);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    corpus_ = new std::vector<CorpusDocument>(std::move(corpus).value());
  }
  static const wordnet::SemanticNetwork& network() { return *network_; }
  static const std::vector<CorpusDocument>& corpus() { return *corpus_; }
  /// The space the corpus trees were interned through.
  static core::LabelSpace* labels() { return labels_; }

 private:
  static const wordnet::SemanticNetwork* network_;
  static core::LabelSpace* labels_;
  static const std::vector<CorpusDocument>* corpus_;
};

const wordnet::SemanticNetwork* ExperimentTest::network_ = nullptr;
const std::vector<CorpusDocument>* ExperimentTest::corpus_ = nullptr;
core::LabelSpace* ExperimentTest::labels_ = nullptr;

TEST_F(ExperimentTest, CorpusHasSixtyPreparedDocuments) {
  EXPECT_EQ(corpus().size(), 60u);
  for (const CorpusDocument& doc : corpus()) {
    EXPECT_FALSE(doc.tree.empty()) << doc.generated.name;
    EXPECT_FALSE(doc.gold.empty()) << doc.generated.name;
    EXPECT_FALSE(doc.target_sample.empty()) << doc.generated.name;
    EXPECT_LE(doc.target_sample.size(), 13u);
  }
}

TEST_F(ExperimentTest, SampledNodesTotalRoughlyPaperScale) {
  // 60 docs x 12-13 nodes =~ 750 (paper: 80 docs -> 1000 nodes).
  size_t total = 0;
  for (const CorpusDocument& doc : corpus()) {
    total += doc.target_sample.size();
  }
  EXPECT_GE(total, 600u);
  EXPECT_LE(total, 780u);
}

TEST_F(ExperimentTest, Table1GroupOneMostAmbiguous) {
  auto rows = ComputeTable1(corpus(), labels());
  ASSERT_EQ(rows.size(), 4u);
  std::map<int, double> ambiguity;
  for (const auto& row : rows) ambiguity[row.group] = row.avg_ambiguity;
  // Paper Table 1: ambiguity is highest for Group 1 and lowest for
  // Group 4.
  EXPECT_GT(ambiguity[1], ambiguity[2]);
  EXPECT_GT(ambiguity[1], ambiguity[3]);
  EXPECT_GT(ambiguity[2], ambiguity[4]);
  EXPECT_GT(ambiguity[3], ambiguity[4]);
}

TEST_F(ExperimentTest, Table2ShapeMatchesPaper) {
  auto rows = ComputeTable2(corpus(), labels());
  ASSERT_EQ(rows.size(), 10u);
  double group1 = 0.0;
  int negatives_in_34 = 0;
  for (const auto& row : rows) {
    if (row.group == 1) group1 = row.all_factors;
    if (row.group >= 3 && row.all_factors < 0.0) ++negatives_in_34;
    EXPECT_GE(row.rated_nodes, 40) << row.dataset_id;
  }
  // Group 1: clear positive human/system agreement.
  EXPECT_GT(group1, 0.3);
  // Groups 3-4 contain negative correlations (the paper's central
  // divergence finding, e.g. dataset 9 at -0.452).
  EXPECT_GE(negatives_in_34, 2);
}

TEST_F(ExperimentTest, Table3ShapesMatchPaper) {
  auto rows = ComputeTable3(corpus(), labels());
  ASSERT_EQ(rows.size(), 10u);
  std::map<int, DatasetStatsRow> by_id;
  for (const auto& row : rows) by_id[row.info.id] = row;
  // Shakespeare is the largest and deepest family.
  for (int id = 2; id <= 10; ++id) {
    EXPECT_GT(by_id[1].avg_nodes, by_id[id].avg_nodes) << id;
  }
  EXPECT_GE(by_id[1].max_depth, 5);
  // The maximum label polysemy anywhere matches the mini-WordNet's
  // "head" (33), appearing in the Shakespeare group.
  EXPECT_EQ(by_id[1].max_polysemy, 33);
  // Group 4 families are less polysemous than Group 1 on average.
  EXPECT_GT(by_id[1].avg_polysemy, by_id[7].avg_polysemy);
}

TEST_F(ExperimentTest, Figure8FValuesInPaperBand) {
  auto cells = ComputeFigure8(corpus(), network(), labels(), {1, 3});
  ASSERT_FALSE(cells.empty());
  // Concept-based F-values land in a plausible band around the paper's
  // [0.55, 0.69].
  for (const auto& cell : cells) {
    if (cell.process != core::DisambiguationProcess::kConceptBased) {
      continue;
    }
    EXPECT_GT(cell.scores.f_value, 0.35)
        << "group " << cell.group << " d=" << cell.radius;
    EXPECT_LT(cell.scores.f_value, 0.9);
  }
}

TEST_F(ExperimentTest, Figure9XsdfLeadsOverall) {
  auto cells = ComputeFigure9(corpus(), network(), labels(),
                              ComputeFigure8(corpus(), network(), labels()));
  ASSERT_EQ(cells.size(), 12u);
  std::map<std::pair<int, std::string>, PrfScores> by_key;
  for (const auto& cell : cells) {
    by_key[{cell.group, cell.system}] = cell.scores;
  }
  auto f_of = [&](int group, const char* system) {
    return by_key[std::make_pair(group, std::string(system))].f_value;
  };
  auto recall_of = [&](int group, const char* system) {
    return by_key[std::make_pair(group, std::string(system))].recall;
  };
  // XSDF ahead of both baselines on Groups 1, 3, 4 and of RPD on
  // Group 2 (paper: ahead everywhere except Group 4 where RPD edges
  // it; see EXPERIMENTS.md for the divergence discussion).
  for (int group : {1, 3, 4}) {
    EXPECT_GT(f_of(group, "XSDF"), f_of(group, "RPD")) << group;
    EXPECT_GT(f_of(group, "XSDF"), f_of(group, "VSD")) << group;
  }
  EXPECT_GT(f_of(2, "XSDF"), f_of(2, "RPD"));
  // Group 1 carries XSDF's best absolute F (the paper's headline).
  EXPECT_GE(f_of(1, "XSDF"), f_of(2, "XSDF"));
  // Baselines have reduced recall everywhere (structure-only coverage).
  for (int group = 1; group <= 4; ++group) {
    EXPECT_LT(recall_of(group, "RPD"), recall_of(group, "XSDF") + 1e-9);
  }
}

TEST_F(ExperimentTest, GroupContextClarityMonotone) {
  EXPECT_LT(GroupContextClarity(1), GroupContextClarity(2));
  EXPECT_LT(GroupContextClarity(2), GroupContextClarity(3));
  EXPECT_LT(GroupContextClarity(3), GroupContextClarity(4));
}

TEST_F(ExperimentTest, BuildCorpusDeterministic) {
  core::LabelSpace space(&network());
  auto corpus2 = BuildCorpus(network(), &space);
  ASSERT_TRUE(corpus2.ok());
  ASSERT_EQ(corpus2->size(), corpus().size());
  for (size_t i = 0; i < corpus().size(); ++i) {
    EXPECT_EQ((*corpus2)[i].generated.xml, corpus()[i].generated.xml);
    EXPECT_EQ((*corpus2)[i].target_sample, corpus()[i].target_sample);
  }
}

}  // namespace
}  // namespace xsdf::eval
