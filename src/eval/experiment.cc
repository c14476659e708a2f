#include "eval/experiment.h"

#include <algorithm>
#include <map>

#include "core/ambiguity.h"
#include "core/baselines.h"
#include "core/streaming_builder.h"
#include "eval/raters.h"
#include "xml/tree_stats.h"

namespace xsdf::eval {

Result<std::vector<CorpusDocument>> BuildCorpus(
    const wordnet::SemanticNetwork& network, core::LabelSpace* label_space,
    uint64_t seed) {
  std::vector<CorpusDocument> corpus;
  for (const datasets::DatasetGenerator* generator :
       datasets::AllDatasets()) {
    std::vector<datasets::GeneratedDocument> docs =
        generator->Generate(seed);
    for (datasets::GeneratedDocument& doc : docs) {
      CorpusDocument entry;
      entry.dataset = generator->info();
      auto tree = core::BuildTreeStreaming(doc.xml, network,
                                           xml::ParseOptions{},
                                           /*include_values=*/true,
                                           label_space);
      if (!tree.ok()) return tree.status();
      entry.tree = std::move(tree).value();
      auto gold = ResolveGold(doc.gold);
      if (!gold.ok()) return gold.status();
      entry.gold = std::move(gold).value();
      entry.generated = std::move(doc);
      int sample_size = 12 + static_cast<int>(corpus.size() % 2);
      entry.target_sample = SampleGoldNodes(
          entry.tree, entry.gold, sample_size, /*structure_bias=*/3,
          seed + corpus.size() * 131 + 7);
      corpus.push_back(std::move(entry));
    }
  }
  return corpus;
}

double GroupContextClarity(int group) {
  switch (group) {
    case 1:
      return 0.10;  // generic, deep, poetic: meanings stay open
    case 2:
      return 0.45;
    case 3:
      return 0.55;
    case 4:
      return 0.70;  // flat domain-specific records: obvious in context
    default:
      return 0.3;
  }
}

std::vector<GroupFeatureRow> ComputeTable1(
    const std::vector<CorpusDocument>& corpus, core::LabelSpace* label_space) {
  std::map<int, GroupFeatureRow> rows;
  for (const CorpusDocument& doc : corpus) {
    GroupFeatureRow& row = rows[doc.dataset.group];
    row.group = doc.dataset.group;
    row.avg_ambiguity +=
        core::AverageAmbiguityDegree(doc.tree, *label_space);
    row.avg_structure += xml::AverageStructDegree(doc.tree);
    row.documents += 1;
  }
  std::vector<GroupFeatureRow> out;
  for (auto& [group, row] : rows) {
    row.avg_ambiguity /= row.documents;
    row.avg_structure /= row.documents;
    out.push_back(row);
  }
  return out;
}

std::vector<CorrelationRow> ComputeTable2(
    const std::vector<CorpusDocument>& corpus, core::LabelSpace* label_space,
    uint64_t seed) {
  struct Accumulator {
    std::vector<double> human;
    std::vector<double> test[4];
    int group = 0;
  };
  // The paper's four weight configurations.
  const core::AmbiguityWeights kConfigs[4] = {
      {1.0, 1.0, 1.0},  // Test #1: all factors
      {1.0, 0.0, 0.0},  // Test #2: polysemy only
      {0.2, 1.0, 0.0},  // Test #3: depth focus
      {0.2, 0.0, 1.0},  // Test #4: density focus
  };
  std::map<int, Accumulator> by_dataset;
  for (const CorpusDocument& doc : corpus) {
    Accumulator& acc = by_dataset[doc.dataset.id];
    acc.group = doc.dataset.group;
    // 12-13 rated nodes per document, as in the paper.
    int count = 12 + static_cast<int>((seed ^ doc.tree.size()) % 2);
    std::vector<xml::NodeId> nodes = SampleRatableNodes(
        doc.tree, *label_space, count,
        seed + doc.tree.size() * 31 + doc.dataset.id * 7);
    RaterPanelOptions options;
    options.context_clarity = GroupContextClarity(doc.dataset.group);
    std::vector<double> ratings = SimulateHumanRatings(
        doc.tree, nodes, *label_space, options, seed + doc.dataset.id);
    for (size_t i = 0; i < nodes.size(); ++i) {
      acc.human.push_back(ratings[i]);
      const double polysemy =
          label_space->Senses(doc.tree.label_id(nodes[i])).polysemy;
      for (int t = 0; t < 4; ++t) {
        acc.test[t].push_back(core::AmbiguityDegree(doc.tree, nodes[i],
                                                    polysemy, kConfigs[t]));
      }
    }
  }
  std::vector<CorrelationRow> rows;
  for (const auto& [dataset_id, acc] : by_dataset) {
    CorrelationRow row;
    row.dataset_id = dataset_id;
    row.group = acc.group;
    row.all_factors = PearsonCorrelation(acc.human, acc.test[0]);
    row.polysemy = PearsonCorrelation(acc.human, acc.test[1]);
    row.depth = PearsonCorrelation(acc.human, acc.test[2]);
    row.density = PearsonCorrelation(acc.human, acc.test[3]);
    row.rated_nodes = static_cast<int>(acc.human.size());
    rows.push_back(row);
  }
  return rows;
}

std::vector<DatasetStatsRow> ComputeTable3(
    const std::vector<CorpusDocument>& corpus, core::LabelSpace* label_space) {
  std::map<int, DatasetStatsRow> rows;
  std::map<int, int> doc_counts;
  for (const CorpusDocument& doc : corpus) {
    DatasetStatsRow& row = rows[doc.dataset.id];
    row.info = doc.dataset;
    doc_counts[doc.dataset.id] += 1;
    xml::TreeShape shape = xml::ComputeTreeShape(doc.tree);
    row.avg_nodes += shape.node_count;
    row.avg_depth += shape.avg_depth;
    row.max_depth = std::max(row.max_depth, shape.max_depth);
    row.avg_fan_out += shape.avg_fan_out;
    row.max_fan_out = std::max(row.max_fan_out, shape.max_fan_out);
    row.avg_density += shape.avg_density;
    row.max_density = std::max(row.max_density, shape.max_density);
    // Label polysemy over nodes.
    double polysemy_sum = 0.0;
    for (xml::NodeId id : doc.tree.ids()) {
      const int label_senses =
          label_space->Senses(doc.tree.label_id(id)).sense_count();
      polysemy_sum += label_senses;
      row.max_polysemy = std::max(row.max_polysemy, label_senses);
    }
    row.avg_polysemy +=
        polysemy_sum / static_cast<double>(doc.tree.size());
  }
  std::vector<DatasetStatsRow> out;
  for (auto& [dataset_id, row] : rows) {
    double n = doc_counts[dataset_id];
    row.avg_nodes /= n;
    row.avg_polysemy /= n;
    row.avg_depth /= n;
    row.avg_fan_out /= n;
    row.avg_density /= n;
    out.push_back(row);
  }
  return out;
}

namespace {

PrfScores RunOnGroup(const std::vector<CorpusDocument>& corpus, int group,
                     const wordnet::SemanticNetwork& network,
                     const core::DisambiguatorOptions& options) {
  core::Disambiguator disambiguator(&network, options);
  std::vector<PrfScores> parts;
  for (const CorpusDocument& doc : corpus) {
    if (doc.dataset.group != group) continue;
    auto result = disambiguator.RunOnTree(doc.tree);
    if (!result.ok()) continue;
    parts.push_back(ScoreOnNodes(*result, doc.gold, doc.target_sample));
  }
  return CombinePrf(parts);
}

}  // namespace

std::vector<ConfigCell> ComputeFigure8(
    const std::vector<CorpusDocument>& corpus,
    const wordnet::SemanticNetwork& network, core::LabelSpace* label_space,
    const std::vector<int>& radii) {
  std::vector<ConfigCell> cells;
  const core::DisambiguationProcess kProcesses[] = {
      core::DisambiguationProcess::kConceptBased,
      core::DisambiguationProcess::kContextBased,
      core::DisambiguationProcess::kCombined,
  };
  for (int group = 1; group <= 4; ++group) {
    for (int radius : radii) {
      for (core::DisambiguationProcess process : kProcesses) {
        core::DisambiguatorOptions options;
        options.label_space = label_space;
        options.sphere_radius = radius;
        options.process = process;
        options.combination_weights = {0.5, 0.5};
        ConfigCell cell;
        cell.group = group;
        cell.radius = radius;
        cell.process = process;
        cell.scores = RunOnGroup(corpus, group, network, options);
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

std::vector<ComparisonCell> ComputeFigure9(
    const std::vector<CorpusDocument>& corpus,
    const wordnet::SemanticNetwork& network, core::LabelSpace* label_space) {
  std::vector<ComparisonCell> cells;
  for (int group = 1; group <= 4; ++group) {
    // XSDF at its optimal configuration: concept-based with the
    // per-group radii of kFigure9Radius.
    core::DisambiguatorOptions options;
    options.label_space = label_space;
    options.sphere_radius = kFigure9Radius[group];
    options.process = core::DisambiguationProcess::kConceptBased;
    cells.push_back(
        {group, "XSDF", RunOnGroup(corpus, group, network, options)});

    core::RpdBaseline rpd(label_space);
    core::VsdBaseline vsd(label_space);
    std::vector<PrfScores> rpd_parts;
    std::vector<PrfScores> vsd_parts;
    for (const CorpusDocument& doc : corpus) {
      if (doc.dataset.group != group) continue;
      auto rpd_result = rpd.RunOnTree(doc.tree);
      if (rpd_result.ok()) {
        rpd_parts.push_back(
            ScoreOnNodes(*rpd_result, doc.gold, doc.target_sample));
      }
      auto vsd_result = vsd.RunOnTree(doc.tree);
      if (vsd_result.ok()) {
        vsd_parts.push_back(
            ScoreOnNodes(*vsd_result, doc.gold, doc.target_sample));
      }
    }
    cells.push_back({group, "RPD", CombinePrf(rpd_parts)});
    cells.push_back({group, "VSD", CombinePrf(vsd_parts)});
  }
  return cells;
}

}  // namespace xsdf::eval
