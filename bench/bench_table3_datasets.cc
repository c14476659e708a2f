// Reproduces paper Table 3: characteristics of the ten test dataset
// families (documents, node counts, label polysemy, depth, fan-out,
// density).

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

  std::printf("Table 3. Characteristics of test documents.\n");
  std::printf("%-3s %-22s %-3s %-5s %-8s %-11s %-9s %-9s %-9s\n", "Ds",
              "Grammar", "Grp", "Docs", "AvgNode",
              "Polysemy", "Depth", "Fan-out", "Density");
  for (const auto& row : xsdf::eval::ComputeTable3(*corpus, &labels)) {
    std::printf(
        "%-3d %-22s %-3d %-5d %-8.1f %5.2f/%-4d %4.2f/%-4d %4.2f/%-4d "
        "%4.2f/%-4d\n",
        row.info.id, row.info.grammar.c_str(), row.info.group,
        row.info.doc_count, row.avg_nodes, row.avg_polysemy,
        row.max_polysemy, row.avg_depth, row.max_depth, row.avg_fan_out,
        row.max_fan_out, row.avg_density, row.max_density);
  }
  std::printf("\nPaper reference: 10 families over 4 groups; Shakespeare "
              "largest (~192 nodes/doc,\nmax depth 6) and most polysemous "
              "(max 30); Group 4 families smallest and least\n"
              "ambiguous. Max polysemy overall: 33 senses ('head', "
              "WordNet 2.1), reproduced by\nthe mini-WordNet.\n");
  return 0;
}
