// Schema matching through disambiguated concepts (one of the paper's
// motivating applications, §1): the two Figure 1 documents describe
// the same movie with different structures and tag vocabularies
// (picture/movie, director/directed_by, star/actor...). After XSDF
// disambiguation both sides carry concept ids, and matching becomes
// concept identity / similarity instead of string equality.
//
//   build/examples/schema_matching

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/disambiguator.h"
#include "datasets/generator.h"
#include "sim/combined.h"
#include "wordnet/mini_wordnet.h"

namespace {

struct LabeledConcept {
  std::string label;
  xsdf::wordnet::ConceptId concept_id;
};

/// Runs XSDF and extracts one concept per distinct structural label.
std::vector<LabeledConcept> ConceptsOf(
    const xsdf::core::Disambiguator& disambiguator,
    const xsdf::wordnet::SemanticNetwork& network,
    const std::string& xml) {
  auto result = disambiguator.RunOnXml(xml);
  std::map<std::string, xsdf::wordnet::ConceptId> by_label;
  for (const auto& [id, assignment] : result->assignments) {
    if (result->tree.kind(id) == xsdf::xml::TreeNodeKind::kToken) continue;
    by_label.emplace(result->tree.label(id), assignment.sense.primary);
  }
  std::vector<LabeledConcept> out;
  for (const auto& [label, id] : by_label) out.push_back({label, id});
  return out;
}

}  // namespace

int main() {
  auto network = xsdf::wordnet::BuildMiniWordNet();
  if (!network.ok()) return 1;
  xsdf::core::Disambiguator disambiguator(&*network);
  xsdf::sim::CombinedMeasure measure;

  const auto docs = xsdf::datasets::Figure1Documents();
  auto schema_a = ConceptsOf(disambiguator, *network, docs[0].xml);
  auto schema_b = ConceptsOf(disambiguator, *network, docs[1].xml);

  std::printf("Schema A (%s): %zu labels; Schema B (%s): %zu labels\n\n",
              docs[0].name.c_str(), schema_a.size(), docs[1].name.c_str(),
              schema_b.size());
  std::printf("%-14s %-14s %-10s %s\n", "label A", "label B",
              "similarity", "verdict");

  // Greedy best-match per label in A.
  for (const auto& a : schema_a) {
    const LabeledConcept* best = nullptr;
    double best_sim = 0.0;
    for (const auto& b : schema_b) {
      double sim =
          measure.Similarity(*network, a.concept_id, b.concept_id);
      if (sim > best_sim) {
        best_sim = sim;
        best = &b;
      }
    }
    if (best == nullptr) continue;
    const char* verdict = best_sim > 0.99  ? "same concept"
                          : best_sim > 0.6 ? "related"
                                           : "unmatched";
    std::printf("%-14s %-14s %-10.3f %s\n", a.label.c_str(),
                best->label.c_str(), best_sim, verdict);
  }

  std::printf(
      "\nSyntactically different tags align semantically: film <-> "
      "movie\nresolve to the same synset and star <-> actor match "
      "through concept\nsimilarity, which string matching cannot see. "
      "Residual mismatches\n(picture read as photograph) mirror the "
      "paper's ~0.6-0.7 F-values —\ndisambiguation is imperfect, and "
      "matching quality follows it.\n");
  return 0;
}
