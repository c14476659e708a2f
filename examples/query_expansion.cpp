// Semantic-aware keyword query expansion (a motivating application
// from the paper's §1): resolve the query keyword to a concept in the
// context of a disambiguated corpus, then expand it with synonyms and
// taxonomic neighbors so retrieval matches documents that never
// contain the literal keyword.
//
//   build/examples/query_expansion [keyword]

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/disambiguator.h"
#include "datasets/generator.h"
#include "wordnet/mini_wordnet.h"

namespace {

/// Expansion terms for a concept: its synonyms plus the lemmas of its
/// direct hypernyms/hyponyms.
std::set<std::string> ExpandConcept(
    const xsdf::wordnet::SemanticNetwork& network,
    xsdf::wordnet::ConceptId id) {
  std::set<std::string> terms;
  const auto& concept_node = network.GetConcept(id);
  terms.insert(concept_node.synonyms.begin(),
               concept_node.synonyms.end());
  for (const auto& edge : concept_node.edges) {
    if (edge.relation == xsdf::wordnet::Relation::kHypernym ||
        edge.relation == xsdf::wordnet::Relation::kHyponym ||
        edge.relation == xsdf::wordnet::Relation::kInstanceHyponym) {
      const auto& neighbor = network.GetConcept(edge.target);
      terms.insert(neighbor.synonyms.begin(), neighbor.synonyms.end());
    }
  }
  return terms;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string keyword = argc > 1 ? argv[1] : "star";

  auto network = xsdf::wordnet::BuildMiniWordNet();
  if (!network.ok()) return 1;
  xsdf::core::Disambiguator disambiguator(&*network);

  // Corpus: the IMDB family documents.
  auto docs = xsdf::datasets::AllDatasets()[3]->Generate(7);
  std::printf("Corpus: %zu IMDB documents. Query keyword: \"%s\" (%d "
              "senses in the lexicon)\n\n",
              docs.size(), keyword.c_str(),
              network->SenseCount(keyword));

  // Disambiguate the corpus and collect the senses actually used for
  // the keyword in context.
  std::set<xsdf::wordnet::ConceptId> used_senses;
  for (const auto& doc : docs) {
    auto result = disambiguator.RunOnXml(doc.xml);
    if (!result.ok()) continue;
    for (const auto& [id, assignment] : result->assignments) {
      if (result->tree.label(id) == keyword) {
        used_senses.insert(assignment.sense.primary);
      }
    }
  }

  if (used_senses.empty()) {
    std::printf("The keyword does not occur in the corpus; expanding "
                "every lexicon sense instead.\n");
    for (auto id : network->Senses(keyword)) used_senses.insert(id);
  }

  for (xsdf::wordnet::ConceptId id : used_senses) {
    const auto& concept_node = network->GetConcept(id);
    std::printf("In-context sense: %s — %s\n",
                concept_node.label().c_str(),
                concept_node.gloss.c_str());
    std::printf("  expansion terms:");
    int printed = 0;
    for (const std::string& term : ExpandConcept(*network, id)) {
      if (term == keyword) continue;
      std::printf(" %s", term.c_str());
      if (++printed >= 14) break;
    }
    std::printf("\n\n");
  }

  std::printf(
      "Without disambiguation, expanding \"%s\" would drag in every "
      "sense's neighbors\n(constellations next to actors); with XSDF "
      "the expansion follows the corpus\nmeaning only — the query "
      "rewriting scenario of the paper's introduction.\n",
      keyword.c_str());
  return 0;
}
