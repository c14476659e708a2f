#ifndef XSDF_SIM_KERNELS_H_
#define XSDF_SIM_KERNELS_H_

#include <cstddef>
#include <span>

#include "wordnet/semantic_network.h"

namespace xsdf::sim {

/// The shared LCS-search kernel of Wu-Palmer, Resnik, Lin, conceptual
/// density and HypernymPathLength below (VSD's path length): one
/// two-pointer merge of two id-sorted AncestorEntry rows, read where
/// they lie, calling `visit(entry_in_a, entry_in_b)` for each common
/// ancestor in ascending id order. Each measure folds the matches as
/// they come; its selection rule (max IC, max density, min path sum
/// with ties toward depth) is order-independent, so scores are
/// bit-identical to the per-pair graph walks of tests/oracles/.
template <typename Visit>
inline void ForEachCommonAncestor(std::span<const wordnet::AncestorEntry> a,
                                  std::span<const wordnet::AncestorEntry> b,
                                  Visit&& visit) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].id < b[j].id) {
      ++i;
    } else if (b[j].id < a[i].id) {
      ++j;
    } else {
      visit(a[i], b[j]);
      ++i;
      ++j;
    }
  }
}

/// Length (edges) of the shortest hypernym path from `a` to `b` through
/// a common ancestor, -1 when the two share none: the least summed
/// distance over the matches of the two finalized ancestor rows.
inline int HypernymPathLength(const wordnet::SemanticNetwork& network,
                              wordnet::ConceptId a, wordnet::ConceptId b) {
  int best = -1;
  ForEachCommonAncestor(
      network.Ancestors(a), network.Ancestors(b),
      [&best](const wordnet::AncestorEntry& ea,
              const wordnet::AncestorEntry& eb) {
        const int sum = ea.distance + eb.distance;
        if (best < 0 || sum < best) best = sum;
      });
  return best;
}

}  // namespace xsdf::sim

#endif  // XSDF_SIM_KERNELS_H_
