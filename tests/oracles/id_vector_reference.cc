#include "oracles/id_vector_reference.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace xsdf::oracles {

double LookupCosine(const core::IdContextVector& a,
                    const core::IdContextVector& b) {
  const std::span<const uint32_t> ids = a.ids();
  const std::span<const double> weights = a.weights();
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (size_t i = 0; i < ids.size(); ++i) {
    double w = weights[i];
    norm_a += w * w;
    dot += w * b.WeightById(ids[i]);
  }
  for (double w : b.weights()) norm_b += w * w;
  if (norm_a <= 0.0 || norm_b <= 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

double LookupJaccard(const core::IdContextVector& a,
                     const core::IdContextVector& b) {
  const std::span<const uint32_t> ids = a.ids();
  const std::span<const double> weights = a.weights();
  double min_sum = 0.0;
  double max_sum = 0.0;
  for (size_t i = 0; i < ids.size(); ++i) {
    double w = weights[i];
    double v = b.WeightById(ids[i]);
    min_sum += std::min(w, v);
    max_sum += std::max(w, v);
  }
  // Weights are strictly positive, so a zero weight means "absent".
  const std::span<const uint32_t> other_ids = b.ids();
  for (size_t i = 0; i < other_ids.size(); ++i) {
    if (a.WeightById(other_ids[i]) == 0.0) max_sum += b.weights()[i];
  }
  return max_sum <= 0.0 ? 0.0 : min_sum / max_sum;
}

}  // namespace xsdf::oracles
