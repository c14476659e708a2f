#include "sim/lin.h"

#include "common/check.h"
#include "sim/kernels.h"

namespace xsdf::sim {

double LinMeasure::Similarity(const wordnet::SemanticNetwork& network,
                              wordnet::ConceptId a,
                              wordnet::ConceptId b) const {
  XSDF_DCHECK(network.finalized(), "similarity needs a finalized network");
  if (a == b) return 1.0;
  // Most informative common subsumer over the merge of the two
  // ancestor rows (see ResnikMeasure::Similarity).
  double best_ic = -1.0;
  ForEachCommonAncestor(
      network.Ancestors(a), network.Ancestors(b),
      [&](const wordnet::AncestorEntry& ea, const wordnet::AncestorEntry&) {
        double ic = network.InformationContentOf(ea.id);
        if (ic > best_ic) best_ic = ic;
      });
  if (best_ic < 0.0) return 0.0;  // unrelated
  double denom = network.InformationContentOf(a) +
                 network.InformationContentOf(b);
  if (denom <= 0.0) return 0.0;
  double sim = 2.0 * best_ic / denom;
  return sim > 1.0 ? 1.0 : sim;
}

}  // namespace xsdf::sim
