#ifndef XSDF_CORE_QUERY_REWRITER_H_
#define XSDF_CORE_QUERY_REWRITER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/disambiguator.h"
#include "xml/path_query.h"

namespace xsdf::core {

/// Semantic-aware query rewriting (the paper's first motivating
/// application, §1): resolve each step name of a path query to the
/// concept it denotes in a disambiguated corpus, then rewrite the
/// query into the set of semantically equivalent queries obtained by
/// substituting each step with the synonym lemmas of its concept.
///
/// A query written against one schema (`/films/picture/star`) then
/// also retrieves from heterogeneous schemas (`//movie//star`,
/// `//film//lead`...), which plain string matching cannot do.
class QueryRewriter {
 public:
  /// `network` must outlive the rewriter.
  explicit QueryRewriter(const wordnet::SemanticNetwork* network,
                         DisambiguatorOptions options = {});

  struct Rewriting {
    /// The resolved concept per step (kInvalidConcept for steps that
    /// could not be grounded: wildcards, unknown labels).
    std::vector<wordnet::ConceptId> step_concepts;
    /// All rewritten queries, including the original, deduplicated and
    /// sorted. Bounded by `max_rewritings`.
    std::vector<std::string> queries;
  };

  /// Grounds `query` against the corpus documents (each XML text is
  /// disambiguated with the configured options through
  /// Disambiguator::RunOnXml) and produces the rewritings. Steps ground
  /// to the majority concept over all corpus nodes carrying the step's
  /// label. A malformed query or document returns its Status.
  Result<Rewriting> RewriteOverXml(
      const std::string& query, const std::vector<std::string>& corpus,
      size_t max_rewritings = 32) const;

 private:
  const wordnet::SemanticNetwork* network_;
  DisambiguatorOptions options_;
};

}  // namespace xsdf::core

#endif  // XSDF_CORE_QUERY_REWRITER_H_
