// Quickstart: disambiguate the paper's Figure 1 movie document
// end-to-end and print the semantically augmented XML tree.
//
//   build/examples/quickstart
//
// Walks through the whole public API surface: build the reference
// semantic network (through the genuine WNDB on-disk round trip, the
// way a deployment would consume WordNet), configure the
// disambiguator, run it on an XML string, inspect assignments, and
// serialize the semantic tree.

#include <cstdio>

#include "core/disambiguator.h"
#include "datasets/generator.h"
#include "wordnet/mini_wordnet.h"

int main() {
  // 1. Load the reference semantic network. BuildMiniWordNetViaWndb
  //    serializes the curated lexicon to WNDB files (data.noun,
  //    index.noun, cntlist.rev, ...) and parses them back — the same
  //    code path you would use with a real WordNet distribution via
  //    xsdf::wordnet::ParseWndbDirectory("/usr/share/wordnet/dict").
  auto network = xsdf::wordnet::BuildMiniWordNetViaWndb();
  if (!network.ok()) {
    std::fprintf(stderr, "failed to build the semantic network: %s\n",
                 network.status().ToString().c_str());
    return 1;
  }
  std::printf("Semantic network: %zu concepts, %zu lemmas, max polysemy "
              "%d\n\n",
              network->size(), network->LemmaCount(),
              network->MaxPolysemy());

  // 2. Configure XSDF. Everything the paper lets the user tune is in
  //    DisambiguatorOptions; the defaults follow the paper's
  //    experimental setup (equal similarity weights, concept-based).
  xsdf::core::DisambiguatorOptions options;
  options.sphere_radius = 2;      // context size d
  options.ambiguity_threshold = 0.0;  // disambiguate all target nodes
  xsdf::core::Disambiguator disambiguator(&*network, options);

  // 3. Run on the paper's Figure 1 document.
  const auto docs = xsdf::datasets::Figure1Documents();
  auto result = disambiguator.RunOnXml(docs[0].xml);
  if (!result.ok()) {
    std::fprintf(stderr, "disambiguation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // 4. Inspect assignments: which sense was chosen for each node?
  std::printf("%-14s %-18s %s\n", "node label", "chosen concept",
              "gloss");
  for (const auto& [id, assignment] : result->assignments) {
    const auto& concept_node = network->GetConcept(assignment.sense.primary);
    std::printf("%-14s %-18s %.58s\n",
                std::string(result->tree.label(id)).c_str(),
                concept_node.label().c_str(),
                concept_node.gloss.c_str());
  }

  // 5. Serialize the semantic XML tree (the paper's Figure 4 output).
  std::printf("\n--- semantic tree (truncated) ---\n%.1200s\n...\n",
              SemanticTreeToXml(*result, *network).c_str());
  return 0;
}
