// Reproduces paper Figure 9: precision / recall / F-value of XSDF (at
// its per-group optimal configuration, read off the Figure 8 sweep by
// eval::Figure9Radius) against the two baselines reimplemented from
// the literature: RPD (root-path disambiguation, Tagarelli et al.) and
// VSD (versatile structural disambiguation, Mandreoli et al.). The
// same runs are also scored structure-only (content tokens excluded),
// since the baselines only disambiguate structural labels (paper
// Table 4).

#include <cstdio>
#include <vector>

#include "eval/experiment.h"
#include "wordnet/mini_wordnet.h"

namespace {

void PrintCells(const std::vector<xsdf::eval::ComparisonCell>& cells,
                bool structure_only) {
  int last_group = 0;
  for (const auto& cell : cells) {
    if (cell.group != last_group) {
      std::printf("\n-- Group %d --\n", cell.group);
      std::printf("%-6s %-8s %-8s %-8s %8s %8s\n", "System", "P", "R",
                  "F", "gold", "correct");
      last_group = cell.group;
    }
    const xsdf::eval::PrfScores& scores =
        structure_only ? cell.structure_scores : cell.scores;
    std::printf("%-6s %-8.3f %-8.3f %-8.3f %8d %8d\n",
                cell.system.c_str(), scores.precision, scores.recall,
                scores.f_value, scores.gold_total, scores.correct);
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
  const auto figure8 = xsdf::eval::ComputeFigure8(*corpus, *network, &labels);
  const auto cells =
      xsdf::eval::ComputeFigure9(*corpus, *network, &labels, figure8);

  std::printf("Figure 9. XSDF vs RPD vs VSD on the sampled target nodes "
              "(12-13 per document).\n");
  std::printf("XSDF is concept-based at its group's best concept-based "
              "Figure 8 radius (a tie\ngoes to the smaller radius):");
  for (const auto& cell : cells) {
    if (cell.system == "XSDF") {
      std::printf(" Group %d d=%d%s", cell.group, cell.radius,
                  cell.group < 4 ? "," : ".\n");
    }
  }
  PrintCells(cells, /*structure_only=*/false);

  std::printf("\nStructure-only evaluation (content tokens excluded; the "
              "baselines never attempt\nthem per Table 4):\n");
  PrintCells(cells, /*structure_only=*/true);

  std::printf(
      "\nPaper shape: XSDF ahead of RPD and VSD with the largest margin "
      "on Group 1 (~35%%),\nshrinking toward Group 4. Reproduced: XSDF "
      "leads all groups under both protocols\n(largest absolute F on "
      "Group 1). Divergence (see EXPERIMENTS.md): the margins grow\n"
      "toward Groups 3-4 instead of shrinking, and the paper's slight RPD "
      "win on Group 4\ndoes not appear here.\n");
  return 0;
}
