// Reproduces paper Table 1: the per-group average ambiguity degree
// (Amb_Deg) and structural richness (Struct_Deg) over the evaluation
// corpus, which justify the Group 1..4 organization.

#include <cstdio>

#include "eval/experiment.h"
#include "wordnet/mini_wordnet.h"

int main() {
  auto network = xsdf::wordnet::BuildMiniWordNet();
  if (!network.ok()) {
    std::fprintf(stderr, "network: %s\n",
                 network.status().ToString().c_str());
    return 1;
  }
  xsdf::core::LabelSpace labels(&*network);
  auto corpus = xsdf::eval::BuildCorpus(*network, &labels);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }

  std::printf("Table 1. Corpus groups by average node ambiguity and "
              "structure.\n");
  std::printf("%-8s %-6s %-12s %-12s\n", "Group", "Docs", "Amb_Deg",
              "Struct_Deg");
  for (const auto& row : xsdf::eval::ComputeTable1(*corpus, &labels)) {
    std::printf("%-8d %-6d %-12.4f %-12.4f\n", row.group, row.documents,
                row.avg_ambiguity, row.avg_structure);
  }
  std::printf("\nPaper reference: Group 1 combines the highest ambiguity "
              "with rich structure;\nambiguity decreases toward Group 4 "
              "(Amb_Deg 0.11/0.09/0.06/0.04 in the paper's scale).\n");
  return 0;
}
