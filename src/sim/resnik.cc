#include "sim/resnik.h"

#include <algorithm>

#include "common/check.h"
#include "sim/kernels.h"

namespace xsdf::sim {

double ResnikMeasure::Similarity(const wordnet::SemanticNetwork& network,
                                 wordnet::ConceptId a,
                                 wordnet::ConceptId b) const {
  XSDF_DCHECK(network.finalized(), "similarity needs a finalized network");
  if (a == b) return 1.0;
  double total = network.TotalFrequency();
  if (total <= 0.0) return 0.0;
  // Most informative common subsumer over the merge of the two
  // ancestor rows; the IC table holds each concept's -log p(c) (0 at
  // the roots), and max() is order-independent.
  double best_ic = -1.0;
  ForEachCommonAncestor(
      network.Ancestors(a), network.Ancestors(b),
      [&](const wordnet::AncestorEntry& ea, const wordnet::AncestorEntry&) {
        best_ic = std::max(best_ic, network.InformationContentOf(ea.id));
      });
  if (best_ic < 0.0) return 0.0;  // unrelated
  double ic_max = network.MaxInformationContent();
  if (ic_max <= 0.0) return 0.0;
  return std::min(1.0, best_ic / ic_max);
}

}  // namespace xsdf::sim
