// Reproduces paper Figure 9: precision / recall / F-value of XSDF (at
// its per-group optimal configuration) against the two baselines
// reimplemented from the literature: RPD (root-path disambiguation,
// Tagarelli et al.) and VSD (versatile structural disambiguation,
// Mandreoli et al.). Also prints a structure-only evaluation variant
// (content tokens excluded from scoring), since the baselines only
// disambiguate structural labels (paper Table 4).

#include <cstdio>
#include <vector>

#include "core/baselines.h"
#include "eval/experiment.h"
#include "wordnet/mini_wordnet.h"

namespace {

void PrintCells(const std::vector<xsdf::eval::ComparisonCell>& cells) {
  int last_group = 0;
  for (const auto& cell : cells) {
    if (cell.group != last_group) {
      std::printf("\n-- Group %d --\n", cell.group);
      std::printf("%-6s %-8s %-8s %-8s %8s %8s\n", "System", "P", "R",
                  "F", "gold", "correct");
      last_group = cell.group;
    }
    std::printf("%-6s %-8.3f %-8.3f %-8.3f %8d %8d\n",
                cell.system.c_str(), cell.scores.precision,
                cell.scores.recall, cell.scores.f_value,
                cell.scores.gold_total, cell.scores.correct);
  }
}

}  // namespace

int main() {
  auto network = xsdf::wordnet::BuildMiniWordNet();
  if (!network.ok()) return 1;
  xsdf::core::LabelSpace labels(&*network);
  auto corpus = xsdf::eval::BuildCorpus(*network, &labels);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }

  std::printf("Figure 9. XSDF vs RPD vs VSD on the sampled target nodes "
              "(12-13 per document).\n");
  PrintCells(xsdf::eval::ComputeFigure9(*corpus, *network, &labels));

  std::printf("\nStructure-only evaluation (content tokens excluded; the "
              "baselines never attempt\nthem per Table 4):\n");
  std::vector<xsdf::eval::ComparisonCell> structural;
  for (int group = 1; group <= 4; ++group) {
    xsdf::core::DisambiguatorOptions options;
    options.label_space = &labels;
    options.sphere_radius = xsdf::eval::kFigure9Radius[group];
    xsdf::core::Disambiguator xsdf_system(&*network, options);
    xsdf::core::RpdBaseline rpd(&labels);
    xsdf::core::VsdBaseline vsd(&labels);
    std::vector<xsdf::eval::PrfScores> px, pr, pv;
    for (const auto& doc : *corpus) {
      if (doc.dataset.group != group) continue;
      std::vector<xsdf::xml::NodeId> nodes;
      for (auto id : doc.target_sample) {
        if (doc.tree.kind(id) != xsdf::xml::TreeNodeKind::kToken) {
          nodes.push_back(id);
        }
      }
      auto rx = xsdf_system.RunOnTree(doc.tree);
      auto rr = rpd.RunOnTree(doc.tree);
      auto rv = vsd.RunOnTree(doc.tree);
      if (rx.ok()) px.push_back(xsdf::eval::ScoreOnNodes(*rx, doc.gold, nodes));
      if (rr.ok()) pr.push_back(xsdf::eval::ScoreOnNodes(*rr, doc.gold, nodes));
      if (rv.ok()) pv.push_back(xsdf::eval::ScoreOnNodes(*rv, doc.gold, nodes));
    }
    structural.push_back({group, "XSDF", xsdf::eval::CombinePrf(px)});
    structural.push_back({group, "RPD", xsdf::eval::CombinePrf(pr)});
    structural.push_back({group, "VSD", xsdf::eval::CombinePrf(pv)});
  }
  PrintCells(structural);

  std::printf(
      "\nPaper shape: XSDF ahead of RPD and VSD with the largest margin "
      "on Group 1 (~35%%),\nshrinking toward Group 4. Reproduced: XSDF "
      "leads all groups (largest absolute\nF on Group 1); RPD ties XSDF "
      "on Group 1 structure-only. Divergence (see\nEXPERIMENTS.md): the "
      "paper's slight RPD win on Group 4 does not appear here.\n");
  return 0;
}
