// Golden accuracy-regression harness: scores the paper's hybrid, every
// single registered measure, and hybrid+conceptual-density on the
// EXPERIMENTS.md evaluation corpus (eval::BuildCorpus, the Table 3
// ten-family generator at the paper's seed) and byte-compares the
// report against tests/golden/accuracy_golden.json. The pinned numbers
// are the integer (gold, attempted, correct) counts per group plus the
// derived P/R/F — so a kernel "optimization" that silently flips even
// one sense assignment under any measure composition fails this test,
// not a human eyeballing a benchmark table. The same report pins the
// paper tables computed on that corpus: Table 1's group features,
// Table 2's rater correlations, Table 3's dataset shapes, Figure 8's 48
// cells and the RPD and VSD cells of Figure 9; Figure 9's XSDF cells
// are held to their Figure 8 cells.
//
// Regenerating after an *intentional* accuracy change:
//   XSDF_UPDATE_GOLDEN=1 ./accuracy_regression_test
// rewrites the golden in the source tree; review the diff like code.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/disambiguator.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "sim/measure_config.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf {
namespace {

constexpr char kGoldenPath[] =
    XSDF_SOURCE_DIR "/tests/golden/accuracy_golden.json";
constexpr uint64_t kCorpusSeed = 20150323;
constexpr int kRadius = 2;

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

/// The label space the corpus trees and every disambiguator share.
core::LabelSpace* Labels() {
  static core::LabelSpace* space = new core::LabelSpace(&Network());
  return space;
}

const std::vector<eval::CorpusDocument>& Corpus() {
  static const std::vector<eval::CorpusDocument>* corpus = [] {
    auto built = eval::BuildCorpus(Network(), Labels(), kCorpusSeed);
    EXPECT_TRUE(built.ok());
    return new std::vector<eval::CorpusDocument>(std::move(built).value());
  }();
  return *corpus;
}

/// Figure 8's sweep of the corpus, computed once: the report pins its
/// cells and Figure 9 reads its radii from them.
const std::vector<eval::ConfigCell>& Figure8() {
  static const std::vector<eval::ConfigCell>* cells =
      new std::vector<eval::ConfigCell>(
          eval::ComputeFigure8(Corpus(), Network(), Labels()));
  return *cells;
}

/// Same loop as eval's RunOnGroup: one disambiguator per group, scored
/// on the shared target sample against the resolved gold.
eval::PrfScores ScoreGroup(int group, const sim::MeasureConfig& config) {
  core::DisambiguatorOptions options;
  options.label_space = Labels();
  options.sphere_radius = kRadius;
  options.measure_config = config;
  core::Disambiguator disambiguator(&Network(), options);
  std::vector<eval::PrfScores> parts;
  for (const eval::CorpusDocument& doc : Corpus()) {
    if (doc.dataset.group != group) continue;
    auto result = disambiguator.RunOnTree(doc.tree);
    if (!result.ok()) continue;
    parts.push_back(eval::ScoreOnNodes(*result, doc.gold,
                                       doc.target_sample));
  }
  return eval::CombinePrf(parts);
}

void AppendCounts(std::string* out, const eval::PrfScores& scores) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"gold\": %d, \"attempted\": %d, \"correct\": %d, "
                "\"precision\": %.6f, \"recall\": %.6f, \"f\": %.6f",
                scores.gold_total, scores.attempted, scores.correct,
                scores.precision, scores.recall, scores.f_value);
  *out += buf;
}

/// Appends the paper tables computed on the golden corpus: Table 1
/// rows, Table 2 correlations, Table 3 rows, Figure 8's cells and
/// Figure 9's baseline cells (Figure9ReadsItsRadiiFromFigure8 holds
/// each XSDF cell to its Figure 8 cell).
void AppendPaperTables(std::string* out) {
  char buf[320];
  *out += "  \"table1\": [\n";
  const auto table1 = eval::ComputeTable1(Corpus(), Labels());
  for (size_t i = 0; i < table1.size(); ++i) {
    const auto& row = table1[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"group\": %d, \"documents\": %d, "
                  "\"avg_ambiguity\": %.6f, \"avg_structure\": %.6f}%s\n",
                  row.group, row.documents, row.avg_ambiguity,
                  row.avg_structure, i + 1 < table1.size() ? "," : "");
    *out += buf;
  }
  *out += "  ],\n  \"table2\": [\n";
  const auto table2 = eval::ComputeTable2(Corpus(), Labels());
  for (size_t i = 0; i < table2.size(); ++i) {
    const auto& row = table2[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"dataset\": %d, \"group\": %d, "
                  "\"rated_nodes\": %d, \"all_factors\": %.6f, "
                  "\"polysemy\": %.6f, \"depth\": %.6f, "
                  "\"density\": %.6f}%s\n",
                  row.dataset_id, row.group, row.rated_nodes,
                  row.all_factors, row.polysemy, row.depth, row.density,
                  i + 1 < table2.size() ? "," : "");
    *out += buf;
  }
  *out += "  ],\n  \"table3\": [\n";
  const auto table3 = eval::ComputeTable3(Corpus(), Labels());
  for (size_t i = 0; i < table3.size(); ++i) {
    const auto& row = table3[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"dataset\": %d, \"avg_nodes\": %.6f, "
                  "\"avg_polysemy\": %.6f, \"max_polysemy\": %d, "
                  "\"avg_depth\": %.6f, \"max_depth\": %d, "
                  "\"avg_fan_out\": %.6f, \"max_fan_out\": %d, "
                  "\"avg_density\": %.6f, \"max_density\": %d}%s\n",
                  row.info.id, row.avg_nodes, row.avg_polysemy,
                  row.max_polysemy, row.avg_depth, row.max_depth,
                  row.avg_fan_out, row.max_fan_out, row.avg_density,
                  row.max_density, i + 1 < table3.size() ? "," : "");
    *out += buf;
  }
  *out += "  ],\n  \"figure8\": [\n";
  const std::vector<eval::ConfigCell>& figure8 = Figure8();
  for (size_t i = 0; i < figure8.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"group\": %d, \"radius\": %d, \"process\": \"%s\", ",
                  figure8[i].group, figure8[i].radius,
                  eval::ProcessName(figure8[i].process));
    *out += buf;
    AppendCounts(out, figure8[i].scores);
    *out += i + 1 < figure8.size() ? "},\n" : "}\n";
  }
  *out += "  ],\n  \"figure9_baselines\": [\n";
  std::vector<eval::ComparisonCell> baselines;
  for (const auto& cell :
       eval::ComputeFigure9(Corpus(), Network(), Labels(), Figure8())) {
    if (cell.system != "XSDF") baselines.push_back(cell);
  }
  for (size_t i = 0; i < baselines.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"group\": %d, \"system\": \"%s\", ",
                  baselines[i].group, baselines[i].system.c_str());
    *out += buf;
    AppendCounts(out, baselines[i].scores);
    *out += i + 1 < baselines.size() ? "},\n" : "}\n";
  }
  *out += "  ]\n";
}

/// The full deterministic report; every golden byte comes from here.
std::string BuildReport() {
  struct NamedConfig {
    const char* label;
    sim::MeasureConfig config;
  };
  std::vector<NamedConfig> configs;
  configs.push_back({"paper-hybrid", sim::MeasureConfig::PaperHybrid()});
  for (const char* name : {"wu-palmer", "lin", "gloss-overlap", "resnik",
                           "conceptual-density"}) {
    sim::MeasureConfig single;
    single.entries = {{name, 1.0}};
    configs.push_back({name, single});
  }
  configs.push_back(
      {"hybrid-plus-density",
       *sim::MeasureConfig::Parse("wu-palmer:0.25,lin:0.25,"
                                  "gloss-overlap:0.25,"
                                  "conceptual-density:0.25")});

  std::string out;
  char buf[160];
  out += "{\n";
  std::snprintf(buf, sizeof(buf),
                "  \"corpus_seed\": %llu,\n  \"radius\": %d,\n",
                static_cast<unsigned long long>(kCorpusSeed), kRadius);
  out += buf;
  out += "  \"configs\": [\n";
  for (size_t c = 0; c < configs.size(); ++c) {
    out += "    {\"label\": \"";
    out += configs[c].label;
    out += "\", \"measures\": \"";
    out += configs[c].config.ToSpec();
    out += "\",\n     \"groups\": [\n";
    std::vector<eval::PrfScores> parts;
    for (int group = 1; group <= 4; ++group) {
      eval::PrfScores scores = ScoreGroup(group, configs[c].config);
      parts.push_back(scores);
      std::snprintf(buf, sizeof(buf), "       {\"group\": %d, ", group);
      out += buf;
      AppendCounts(&out, scores);
      out += group < 4 ? "},\n" : "}\n";
    }
    out += "     ],\n     \"overall\": {";
    AppendCounts(&out, eval::CombinePrf(parts));
    out += c + 1 < configs.size() ? "}},\n" : "}}\n";
  }
  out += "  ],\n";
  AppendPaperTables(&out);
  out += "}\n";
  return out;
}

TEST(AccuracyRegressionTest, MatchesGolden) {
  std::string report = BuildReport();
  if (std::getenv("XSDF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << report;
    ASSERT_TRUE(out.good());
    std::printf("golden rewritten: %s\n", kGoldenPath);
    return;
  }
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << kGoldenPath
                  << " missing; run with XSDF_UPDATE_GOLDEN=1 to create";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(report, golden.str())
      << "accuracy drifted from the golden report; if the change is "
         "intentional, regenerate with XSDF_UPDATE_GOLDEN=1 and review "
         "the diff";
}

// Figure 9's XSDF radius comes from Figure 8 by one rule: the group's
// best concept-based F, a tie going to the smaller radius. Each XSDF
// cell is then the Figure 8 cell at that radius, count for count.
TEST(AccuracyRegressionTest, Figure9ReadsItsRadiiFromFigure8) {
  const std::vector<eval::ConfigCell>& figure8 = Figure8();
  auto concept_cell = [&](int group, int radius) {
    const eval::ConfigCell* found = nullptr;
    for (const eval::ConfigCell& cell : figure8) {
      if (cell.group == group && cell.radius == radius &&
          cell.process == core::DisambiguationProcess::kConceptBased) {
        found = &cell;
      }
    }
    return found;
  };

  // Group 1's d=3 and d=4 cells tie exactly, and the tie goes to d=3.
  const eval::ConfigCell* d3 = concept_cell(1, 3);
  const eval::ConfigCell* d4 = concept_cell(1, 4);
  ASSERT_NE(d3, nullptr);
  ASSERT_NE(d4, nullptr);
  EXPECT_EQ(d3->scores.gold_total, d4->scores.gold_total);
  EXPECT_EQ(d3->scores.attempted, d4->scores.attempted);
  EXPECT_EQ(d3->scores.correct, d4->scores.correct);
  EXPECT_EQ(d3->scores.f_value, d4->scores.f_value);
  EXPECT_EQ(eval::Figure9Radius(figure8, 1), 3);

  for (int group = 1; group <= 4; ++group) {
    const int radius = eval::Figure9Radius(figure8, group);
    const eval::ConfigCell* chosen = concept_cell(group, radius);
    ASSERT_NE(chosen, nullptr) << "group " << group;
    for (int other = 1; other <= 4; ++other) {
      const eval::ConfigCell* cell = concept_cell(group, other);
      ASSERT_NE(cell, nullptr);
      EXPECT_LE(cell->scores.f_value, chosen->scores.f_value)
          << "group " << group << " d=" << other;
      if (other < radius) {
        EXPECT_LT(cell->scores.f_value, chosen->scores.f_value)
            << "group " << group << " d=" << other;
      }
    }
  }

  int xsdf_cells = 0;
  for (const eval::ComparisonCell& cell :
       eval::ComputeFigure9(Corpus(), Network(), Labels(), figure8)) {
    if (cell.system != "XSDF") continue;
    ++xsdf_cells;
    EXPECT_EQ(cell.radius, eval::Figure9Radius(figure8, cell.group));
    const eval::ConfigCell* chosen = concept_cell(cell.group, cell.radius);
    ASSERT_NE(chosen, nullptr) << "group " << cell.group;
    EXPECT_EQ(cell.scores.gold_total, chosen->scores.gold_total);
    EXPECT_EQ(cell.scores.attempted, chosen->scores.attempted);
    EXPECT_EQ(cell.scores.correct, chosen->scores.correct);
    EXPECT_EQ(cell.scores.precision, chosen->scores.precision);
    EXPECT_EQ(cell.scores.recall, chosen->scores.recall);
    EXPECT_EQ(cell.scores.f_value, chosen->scores.f_value);
  }
  EXPECT_EQ(xsdf_cells, 4);
}

// Sanity floor independent of the golden bytes: the paper hybrid must
// actually disambiguate (non-trivial recall) and conceptual-density:1
// must run the full corpus without degenerating to zero attempts —
// the acceptance bar for "a production measure", not a stub.
TEST(AccuracyRegressionTest, ConfigsProduceNonTrivialScores) {
  eval::PrfScores hybrid;
  eval::PrfScores density;
  {
    std::vector<eval::PrfScores> parts;
    for (int group = 1; group <= 4; ++group) {
      parts.push_back(ScoreGroup(group, sim::MeasureConfig::PaperHybrid()));
    }
    hybrid = eval::CombinePrf(parts);
  }
  {
    sim::MeasureConfig config;
    config.entries = {{"conceptual-density", 1.0}};
    std::vector<eval::PrfScores> parts;
    for (int group = 1; group <= 4; ++group) {
      parts.push_back(ScoreGroup(group, config));
    }
    density = eval::CombinePrf(parts);
  }
  EXPECT_GT(hybrid.gold_total, 100);
  EXPECT_GT(hybrid.recall, 0.3);
  EXPECT_EQ(density.gold_total, hybrid.gold_total)
      << "same corpus, same target sample";
  EXPECT_GT(density.attempted, 0);
  EXPECT_GT(density.recall, 0.1);
}

}  // namespace
}  // namespace xsdf
