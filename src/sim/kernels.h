#ifndef XSDF_SIM_KERNELS_H_
#define XSDF_SIM_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.h"
#include "wordnet/semantic_network.h"

namespace xsdf::sim {

/// The shared LCS-search kernel of Resnik/Lin/Wu-Palmer (and of
/// HypernymPathLength below, VSD's path length): positions of
/// the common ancestors of two id-sorted AncestorEntry rows, written
/// into per-thread scratch (valid until the calling thread's next
/// IntersectAncestors call). The interleaved {id, distance} rows are
/// consumed in place — the stride-2 intersect reads the id words where
/// they lie, so the CSR/snapshot layout stays untouched.
///
/// Each measure finishes scalar over the matched positions in match
/// order; the match set is identical at every dispatch level and the
/// selection rules (max IC, min path-sum) are order-independent, so
/// scores are bit-identical to the pre-SIMD inline merges.
struct AncestorMatches {
  const uint32_t* a = nullptr;  ///< positions into the first row
  const uint32_t* b = nullptr;  ///< positions into the second row
  size_t count = 0;
};

inline AncestorMatches IntersectAncestors(
    std::span<const wordnet::AncestorEntry> a,
    std::span<const wordnet::AncestorEntry> b, bool need_b_positions) {
  static_assert(sizeof(wordnet::AncestorEntry) == 2 * sizeof(uint32_t));
  thread_local std::vector<uint32_t> pos_a;
  thread_local std::vector<uint32_t> pos_b;
  const size_t cap = a.size() < b.size() ? a.size() : b.size();
  if (pos_a.size() < cap) pos_a.resize(cap);
  if (need_b_positions && pos_b.size() < cap) pos_b.resize(cap);
  AncestorMatches m;
  m.a = pos_a.data();
  m.b = need_b_positions ? pos_b.data() : nullptr;
  // ConceptId is a non-negative int, so reading the id words as uint32
  // preserves the sort order the CSR rows were built with.
  m.count = simd::SortedIntersectPositionsStride2(
      reinterpret_cast<const uint32_t*>(a.data()), a.size(),
      reinterpret_cast<const uint32_t*>(b.data()), b.size(), pos_a.data(),
      need_b_positions ? pos_b.data() : nullptr);
  return m;
}

/// Length (edges) of the shortest hypernym path from `a` to `b` through
/// a common ancestor, -1 when the two share none: the least summed
/// distance over the matches of the two finalized ancestor rows.
inline int HypernymPathLength(const wordnet::SemanticNetwork& network,
                              wordnet::ConceptId a, wordnet::ConceptId b) {
  std::span<const wordnet::AncestorEntry> aa = network.Ancestors(a);
  std::span<const wordnet::AncestorEntry> ab = network.Ancestors(b);
  const AncestorMatches common =
      IntersectAncestors(aa, ab, /*need_b_positions=*/true);
  int best = -1;
  for (size_t k = 0; k < common.count; ++k) {
    const int sum = aa[common.a[k]].distance + ab[common.b[k]].distance;
    if (best < 0 || sum < best) best = sum;
  }
  return best;
}

}  // namespace xsdf::sim

#endif  // XSDF_SIM_KERNELS_H_
