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
  // Most informative common subsumer via the sorted-ancestor
  // intersect; the IC table holds each concept's -log p(c) (0 at the
  // roots), the intersect finds the same matches at every dispatch
  // level, and max() is order-independent — so scores are
  // bit-identical at every level.
  std::span<const wordnet::AncestorEntry> aa = network.Ancestors(a);
  std::span<const wordnet::AncestorEntry> ab = network.Ancestors(b);
  double best_ic = -1.0;
  AncestorMatches lcs = IntersectAncestors(aa, ab, /*need_b_positions=*/false);
  for (size_t k = 0; k < lcs.count; ++k) {
    best_ic = std::max(best_ic, network.InformationContentOf(aa[lcs.a[k]].id));
  }
  if (best_ic < 0.0) return 0.0;  // unrelated
  double ic_max = network.MaxInformationContent();
  if (ic_max <= 0.0) return 0.0;
  return std::min(1.0, best_ic / ic_max);
}

}  // namespace xsdf::sim
