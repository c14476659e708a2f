#include "sim/lin.h"

#include "common/check.h"
#include "sim/kernels.h"

namespace xsdf::sim {

double LinMeasure::Similarity(const wordnet::SemanticNetwork& network,
                              wordnet::ConceptId a,
                              wordnet::ConceptId b) const {
  XSDF_DCHECK(network.finalized(), "similarity needs a finalized network");
  if (a == b) return 1.0;
  // Most informative common subsumer via the sorted-ancestor
  // intersect over the precomputed tables (see ResnikMeasure::Similarity
  // for why this is bit-identical at every dispatch level).
  std::span<const wordnet::AncestorEntry> aa = network.Ancestors(a);
  std::span<const wordnet::AncestorEntry> ab = network.Ancestors(b);
  double best_ic = -1.0;
  AncestorMatches lcs = IntersectAncestors(aa, ab, /*need_b_positions=*/false);
  for (size_t k = 0; k < lcs.count; ++k) {
    double ic = network.InformationContentOf(aa[lcs.a[k]].id);
    if (ic > best_ic) best_ic = ic;
  }
  if (best_ic < 0.0) return 0.0;  // unrelated
  double denom = network.InformationContentOf(a) +
                 network.InformationContentOf(b);
  if (denom <= 0.0) return 0.0;
  double sim = 2.0 * best_ic / denom;
  return sim > 1.0 ? 1.0 : sim;
}

}  // namespace xsdf::sim
