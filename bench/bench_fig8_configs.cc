// Reproduces paper Figure 8: average F-value of XSDF under its
// different configurations — corpus group x sphere radius (context
// size) x disambiguation process (concept-based / context-based /
// combined).

#include <cstdio>

#include "eval/experiment.h"
#include "wordnet/mini_wordnet.h"

int main() {
  auto network = xsdf::wordnet::BuildMiniWordNet();
  if (!network.ok()) return 1;
  xsdf::core::LabelSpace labels(&*network);
  auto corpus = xsdf::eval::BuildCorpus(*network, &labels);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }

  std::printf("Figure 8. Average F-value per group / context size / "
              "disambiguation process.\n");
  auto cells = xsdf::eval::ComputeFigure8(*corpus, *network, &labels);
  int last_group = 0;
  for (const auto& cell : cells) {
    if (cell.group != last_group) {
      std::printf("\n-- Group %d --\n", cell.group);
      std::printf("%-8s %-10s %-8s %-8s %-8s\n", "Radius", "Process",
                  "P", "R", "F");
      last_group = cell.group;
    }
    std::printf("%-8d %-10s %-8.3f %-8.3f %-8.3f\n", cell.radius,
                xsdf::eval::ProcessName(cell.process), cell.scores.precision,
                cell.scores.recall, cell.scores.f_value);
  }
  std::printf(
      "\nPaper shape: F-values in [0.55, 0.69]; highest on Group 1; "
      "optimal context size\ndepends on the group; context-based more "
      "sensitive to radius than concept-based.\nDivergence (see "
      "EXPERIMENTS.md): with the compact mini-WordNet, concept-sphere\n"
      "vectors stay clean at larger radii, so the context-based process "
      "is stronger here\nthan with a full-size WordNet, where the paper "
      "observes sphere explosion noise.\n");
  return 0;
}
