#include "sim/wu_palmer.h"

#include <limits>

#include "common/check.h"
#include "sim/kernels.h"

namespace xsdf::sim {

double WuPalmerMeasure::Similarity(const wordnet::SemanticNetwork& network,
                                   wordnet::ConceptId a,
                                   wordnet::ConceptId b) const {
  XSDF_DCHECK(network.finalized(), "similarity needs a finalized network");
  if (a == b) return 1.0;
  // LCS = common ancestor minimizing len_a + len_b (ties toward depth),
  // found by the stride-2 intersect of the two id-sorted ancestor arrays.
  // The score only depends on (best_sum, best_depth); the (sum, depth)
  // selection rule is order-independent over the matched set and the
  // intersect finds the same matches at every dispatch level — so the
  // score is bit-identical at every level.
  std::span<const wordnet::AncestorEntry> aa = network.Ancestors(a);
  std::span<const wordnet::AncestorEntry> ab = network.Ancestors(b);
  int best_sum = std::numeric_limits<int>::max();
  int best_depth = -1;
  AncestorMatches lcs = IntersectAncestors(aa, ab, /*need_b_positions=*/true);
  for (size_t k = 0; k < lcs.count; ++k) {
    const wordnet::AncestorEntry& ea = aa[lcs.a[k]];
    const wordnet::AncestorEntry& eb = ab[lcs.b[k]];
    int sum = static_cast<int>(ea.distance + eb.distance);
    int depth = network.Depth(ea.id);
    if (sum < best_sum || (sum == best_sum && depth > best_depth)) {
      best_sum = sum;
      best_depth = depth;
    }
  }
  if (best_depth < 0 && best_sum == std::numeric_limits<int>::max()) {
    return 0.0;  // no common ancestor
  }
  double denominator = static_cast<double>(best_sum + 2 * best_depth);
  if (denominator <= 0.0) return 0.0;  // both are roots and disjoint
  return (2.0 * best_depth) / denominator;
}

}  // namespace xsdf::sim
