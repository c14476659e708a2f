// Reproduces paper Table 2: Pearson correlation between human
// ambiguity ratings (simulated rater panel, §4.2) and the system's
// Amb_Deg under the four weight configurations (Tests #1-#4).

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

  std::printf("Table 2. Correlation between (simulated) human ratings and "
              "system ambiguity degrees.\n");
  std::printf("%-9s %-6s %-12s %-12s %-12s %-12s %-6s\n", "Dataset",
              "Group", "Test#1 all", "Test#2 poly", "Test#3 depth",
              "Test#4 dens", "Nodes");
  int total_nodes = 0;
  for (const auto& row : xsdf::eval::ComputeTable2(*corpus, &labels)) {
    std::printf("%-9d %-6d %+-12.3f %+-12.3f %+-12.3f %+-12.3f %-6d\n",
                row.dataset_id, row.group, row.all_factors, row.polysemy,
                row.depth, row.density, row.rated_nodes);
    total_nodes += row.rated_nodes;
  }
  std::printf("\nTotal rated nodes: %d (paper: 1000)\n", total_nodes);
  std::printf("Paper shape: maximum positive correlation on Group 1 "
              "(0.335..0.439); near-zero or\nnegative on the low-ambiguity "
              "/ poorly-structured groups (e.g. dataset 9: -0.452),\n"
              "with mixed signs inside Groups 3-4.\n");
  return 0;
}
