#ifndef XSDF_TESTS_ORACLES_ID_VECTOR_REFERENCE_H_
#define XSDF_TESTS_ORACLES_ID_VECTOR_REFERENCE_H_

#include "core/context_vector.h"

/// Per-id lookup references for IdContextVector's comparisons: each
/// vector's weights go into the oracle's own id-to-weight map, built
/// from ids()/weights(), so no lookup is shared with production, and
/// the sums run in the same first-occurrence order. Every SIMD dispatch
/// level, scalar included, must reproduce them bit for bit.
namespace xsdf::oracles {

/// Cosine similarity of `a` and `b` (0 when either is empty).
double LookupCosine(const core::IdContextVector& a,
                    const core::IdContextVector& b);

/// Weighted Jaccard similarity of `a` and `b`, sum(min(w)) /
/// sum(max(w)) (0 when both are empty).
double LookupJaccard(const core::IdContextVector& a,
                     const core::IdContextVector& b);

}  // namespace xsdf::oracles

#endif  // XSDF_TESTS_ORACLES_ID_VECTOR_REFERENCE_H_
