#include "core/query_rewriter.h"

#include <algorithm>
#include <map>
#include <set>

#include "text/preprocess.h"

namespace xsdf::core {

QueryRewriter::QueryRewriter(const wordnet::SemanticNetwork* network,
                             DisambiguatorOptions options)
    : network_(network), options_(options) {}

Result<QueryRewriter::Rewriting> QueryRewriter::RewriteOverXml(
    const std::string& query, const std::vector<std::string>& corpus,
    size_t max_rewritings) const {
  auto compiled = xml::PathQuery::Parse(query);
  if (!compiled.ok()) return compiled.status();

  // Ground each step label: majority concept over every disambiguated
  // corpus node carrying that label.
  Disambiguator disambiguator(network_, options_);
  std::map<std::string, std::map<wordnet::ConceptId, int>> votes;
  for (const std::string& xml_text : corpus) {
    auto result = disambiguator.RunOnXml(xml_text);
    if (!result.ok()) return result.status();
    for (const auto& [id, assignment] : result->assignments) {
      votes[std::string(result->tree.label(id))][assignment.sense.primary] +=
          1;
    }
  }

  Rewriting rewriting;
  // Per-step alternative lemma lists.
  std::vector<std::vector<std::string>> alternatives;
  for (const xml::PathStep& step : compiled->steps()) {
    wordnet::ConceptId grounded = wordnet::kInvalidConcept;
    // Query step names go through the same linguistic pipeline as tree
    // labels ("films" -> "film"), so raw tag spellings ground too.
    text::LexiconProbe probe = [this](const std::string& lemma) {
      return network_->Contains(lemma);
    };
    std::string normalized =
        step.name == "*" ? step.name
                         : text::PreprocessTagName(step.name, probe).label;
    auto it = votes.find(normalized);
    if (step.name != "*" && it != votes.end()) {
      int best_votes = 0;
      for (const auto& [concept_id, count] : it->second) {
        if (count > best_votes) {
          best_votes = count;
          grounded = concept_id;
        }
      }
    }
    rewriting.step_concepts.push_back(grounded);
    std::vector<std::string> step_alternatives = {step.name};
    if (grounded != wordnet::kInvalidConcept) {
      for (const std::string& lemma :
           network_->GetConcept(grounded).synonyms) {
        // Multi-word collocations cannot name an element step.
        if (lemma.find('_') != std::string::npos) continue;
        if (std::find(step_alternatives.begin(), step_alternatives.end(),
                      lemma) == step_alternatives.end()) {
          step_alternatives.push_back(lemma);
        }
        if (step_alternatives.size() >= 4) break;
      }
    }
    alternatives.push_back(std::move(step_alternatives));
  }

  // Cartesian expansion, bounded.
  std::set<std::string> queries;
  std::vector<size_t> index(alternatives.size(), 0);
  while (queries.size() < max_rewritings) {
    std::string rewritten;
    for (size_t i = 0; i < alternatives.size(); ++i) {
      const xml::PathStep& step = compiled->steps()[i];
      rewritten += step.descendant ? "//" : "/";
      rewritten += alternatives[i][index[i]];
      if (step.has_attribute_predicate) {
        rewritten += "[@" + step.attribute;
        if (step.has_attribute_value) {
          rewritten += "='" + step.attribute_value + "'";
        }
        rewritten += "]";
      }
    }
    queries.insert(std::move(rewritten));
    // Odometer increment.
    size_t position = 0;
    while (position < index.size()) {
      if (++index[position] < alternatives[position].size()) break;
      index[position] = 0;
      ++position;
    }
    if (position == index.size()) break;  // full cycle
  }
  rewriting.queries.assign(queries.begin(), queries.end());
  return rewriting;
}

}  // namespace xsdf::core
