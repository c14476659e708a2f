#include "eval/experiment.h"

#include <algorithm>
#include <map>
#include <utility>

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

/// P/R/F of `run` (a document's tree -> Result<core::SemanticTree>)
/// over the documents of `group`, scored on each document's target
/// sample; with `structure_scores`, also on the sample's element and
/// attribute nodes. Documents whose run fails are skipped.
template <typename Run>
PrfScores ScoreGroup(const std::vector<CorpusDocument>& corpus, int group,
                     const Run& run, PrfScores* structure_scores = nullptr) {
  std::vector<PrfScores> parts;
  std::vector<PrfScores> structure_parts;
  std::vector<xml::NodeId> structure_nodes;
  for (const CorpusDocument& doc : corpus) {
    if (doc.dataset.group != group) continue;
    auto result = run(doc.tree);
    if (!result.ok()) continue;
    parts.push_back(ScoreOnNodes(*result, doc.gold, doc.target_sample));
    if (structure_scores == nullptr) continue;
    structure_nodes.clear();
    for (xml::NodeId id : doc.target_sample) {
      if (doc.tree.kind(id) != xml::TreeNodeKind::kToken) {
        structure_nodes.push_back(id);
      }
    }
    structure_parts.push_back(
        ScoreOnNodes(*result, doc.gold, structure_nodes));
  }
  if (structure_scores != nullptr) {
    *structure_scores = CombinePrf(structure_parts);
  }
  return CombinePrf(parts);
}

}  // namespace

const char* ProcessName(core::DisambiguationProcess process) {
  switch (process) {
    case core::DisambiguationProcess::kConceptBased:
      return "concept";
    case core::DisambiguationProcess::kContextBased:
      return "context";
    case core::DisambiguationProcess::kCombined:
      return "combined";
  }
  return "?";
}

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
        const core::Disambiguator disambiguator(&network, options);
        ConfigCell cell;
        cell.group = group;
        cell.radius = radius;
        cell.process = process;
        cell.scores = ScoreGroup(corpus, group,
                                 [&](const xml::LabeledTree& tree) {
                                   return disambiguator.RunOnTree(tree);
                                 });
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

int Figure9Radius(const std::vector<ConfigCell>& figure8, int group) {
  const ConfigCell* best = nullptr;
  for (const ConfigCell& cell : figure8) {
    if (cell.group != group ||
        cell.process != core::DisambiguationProcess::kConceptBased) {
      continue;
    }
    if (best == nullptr || cell.scores.f_value > best->scores.f_value ||
        (cell.scores.f_value == best->scores.f_value &&
         cell.radius < best->radius)) {
      best = &cell;
    }
  }
  return best == nullptr ? 0 : best->radius;
}

std::vector<ComparisonCell> ComputeFigure9(
    const std::vector<CorpusDocument>& corpus,
    const wordnet::SemanticNetwork& network, core::LabelSpace* label_space,
    const std::vector<ConfigCell>& figure8) {
  const core::RpdBaseline rpd(label_space);
  const core::VsdBaseline vsd(label_space);
  std::vector<ComparisonCell> cells;
  for (int group = 1; group <= 4; ++group) {
    auto add = [&](const char* system, int radius, const auto& run) {
      ComparisonCell cell;
      cell.group = group;
      cell.system = system;
      cell.radius = radius;
      cell.scores = ScoreGroup(corpus, group, run, &cell.structure_scores);
      cells.push_back(std::move(cell));
    };
    core::DisambiguatorOptions options;
    options.label_space = label_space;
    options.sphere_radius = Figure9Radius(figure8, group);
    options.process = core::DisambiguationProcess::kConceptBased;
    const core::Disambiguator xsdf(&network, options);
    add("XSDF", options.sphere_radius, [&](const xml::LabeledTree& tree) {
      return xsdf.RunOnTree(tree);
    });
    add("RPD", 0, [&](const xml::LabeledTree& tree) {
      return rpd.RunOnTree(tree);
    });
    add("VSD", 0, [&](const xml::LabeledTree& tree) {
      return vsd.RunOnTree(tree);
    });
  }
  return cells;
}

}  // namespace xsdf::eval
