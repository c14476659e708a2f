// Ablation study of XSDF's design choices (DESIGN.md §3): each row
// removes or degrades one component of the full system and reports the
// corpus-wide F-value, plus a selection-threshold sweep showing the
// precision/throughput trade-off of the ambiguity-based target
// selection (Motivation 1).

#include <chrono>
#include <cstdio>
#include <vector>

#include "eval/experiment.h"
#include "wordnet/mini_wordnet.h"

namespace {

using xsdf::core::DisambiguatorOptions;

struct Ablation {
  const char* name;
  DisambiguatorOptions options;
};

xsdf::eval::PrfScores RunAll(
    const std::vector<xsdf::eval::CorpusDocument>& corpus,
    const xsdf::wordnet::SemanticNetwork& network,
    const DisambiguatorOptions& options, double* seconds) {
  xsdf::core::Disambiguator system(&network, options);
  std::vector<xsdf::eval::PrfScores> parts;
  auto start = std::chrono::steady_clock::now();
  for (const auto& doc : corpus) {
    auto result = system.RunOnTree(doc.tree);
    if (!result.ok()) continue;
    parts.push_back(xsdf::eval::ScoreOnNodes(*result, doc.gold, doc.target_sample));
  }
  *seconds = std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  return xsdf::eval::CombinePrf(parts);
}

}  // namespace

int main() {
  auto network = xsdf::wordnet::BuildMiniWordNet();
  if (!network.ok()) return 1;
  xsdf::core::LabelSpace labels(&*network);
  auto corpus = xsdf::eval::BuildCorpus(*network, &labels);
  if (!corpus.ok()) return 1;

  DisambiguatorOptions full;
  full.label_space = &labels;
  full.sphere_radius = 2;

  std::vector<Ablation> ablations;
  ablations.push_back({"full system (d=2, concept-based)", full});
  {
    DisambiguatorOptions o = full;
    o.bag_of_words_context = true;
    ablations.push_back({"- structural proximity (bag-of-words)", o});
  }
  {
    DisambiguatorOptions o = full;
    o.frequency_prior = 0.0;
    ablations.push_back({"- most-frequent-sense prior", o});
  }
  {
    DisambiguatorOptions o = full;
    o.structure_only_context = true;
    ablations.push_back({"- content context (structure-only spheres)", o});
  }
  {
    DisambiguatorOptions o = full;
    o.measure_config = xsdf::sim::MeasureConfig::PaperHybrid(1.0, 0.0, 0.0);
    ablations.push_back({"edge measure only (no node/gloss)", o});
  }
  {
    DisambiguatorOptions o = full;
    o.measure_config = xsdf::sim::MeasureConfig::PaperHybrid(0.0, 1.0, 0.0);
    ablations.push_back({"node (IC) measure only", o});
  }
  {
    DisambiguatorOptions o = full;
    o.measure_config = xsdf::sim::MeasureConfig::PaperHybrid(0.0, 0.0, 1.0);
    ablations.push_back({"gloss measure only", o});
  }
  {
    DisambiguatorOptions o = full;
    o.process = xsdf::core::DisambiguationProcess::kContextBased;
    ablations.push_back({"context-based, cosine vectors", o});
  }
  {
    DisambiguatorOptions o = full;
    o.process = xsdf::core::DisambiguationProcess::kContextBased;
    o.vector_similarity = xsdf::core::VectorSimilarity::kJaccard;
    ablations.push_back({"context-based, Jaccard vectors", o});
  }

  std::printf("Ablation study (all 60 documents, sampled target nodes).\n");
  std::printf("%-42s %-8s %-8s %-8s %-8s\n", "Configuration", "P", "R",
              "F", "sec");
  for (const Ablation& ablation : ablations) {
    double seconds = 0.0;
    auto scores = RunAll(*corpus, *network, ablation.options, &seconds);
    std::printf("%-42s %-8.3f %-8.3f %-8.3f %-8.2f\n", ablation.name,
                scores.precision, scores.recall, scores.f_value, seconds);
  }

  std::printf("\nAmbiguity-threshold sweep (Motivation 1: selecting only "
              "ambiguous targets).\n");
  std::printf("%-10s %-10s %-8s %-8s %-8s %-8s\n", "Thresh", "Targets",
              "P", "R", "F", "sec");
  for (double threshold : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20}) {
    DisambiguatorOptions o = full;
    o.ambiguity_threshold = threshold;
    double seconds = 0.0;
    auto scores = RunAll(*corpus, *network, o, &seconds);
    // Count selected targets across the corpus for this threshold.
    long targets = 0;
    for (const auto& doc : *corpus) {
      targets += static_cast<long>(
          xsdf::core::SelectTargetNodes(doc.tree, labels, threshold)
              .size());
    }
    std::printf("%-10.2f %-10ld %-8.3f %-8.3f %-8.3f %-8.2f\n", threshold,
                targets, scores.precision, scores.recall, scores.f_value,
                seconds);
  }
  return 0;
}
