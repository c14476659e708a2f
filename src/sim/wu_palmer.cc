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
  // found by the merge of the two id-sorted ancestor rows. The score
  // only depends on (best_sum, best_depth), and the (sum, depth)
  // selection rule is order-independent over the common ancestors.
  int best_sum = std::numeric_limits<int>::max();
  int best_depth = -1;
  ForEachCommonAncestor(
      network.Ancestors(a), network.Ancestors(b),
      [&](const wordnet::AncestorEntry& ea,
          const wordnet::AncestorEntry& eb) {
        int sum = static_cast<int>(ea.distance + eb.distance);
        int depth = network.Depth(ea.id);
        if (sum < best_sum || (sum == best_sum && depth > best_depth)) {
          best_sum = sum;
          best_depth = depth;
        }
      });
  if (best_depth < 0 && best_sum == std::numeric_limits<int>::max()) {
    return 0.0;  // no common ancestor
  }
  double denominator = static_cast<double>(best_sum + 2 * best_depth);
  if (denominator <= 0.0) return 0.0;  // both are roots and disjoint
  return (2.0 * best_depth) / denominator;
}

}  // namespace xsdf::sim
