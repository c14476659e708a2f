#include "oracles/id_vector_reference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>

namespace xsdf::oracles {

namespace {

using WeightMap = std::unordered_map<uint32_t, double>;

WeightMap WeightsById(const core::IdContextVector& v) {
  WeightMap map;
  for (size_t i = 0; i < v.ids().size(); ++i) {
    map.emplace(v.ids()[i], v.weights()[i]);
  }
  return map;
}

/// w(id) in `map`, 0 when absent.
double WeightOf(const WeightMap& map, uint32_t id) {
  auto it = map.find(id);
  return it == map.end() ? 0.0 : it->second;
}

}  // namespace

double LookupCosine(const core::IdContextVector& a,
                    const core::IdContextVector& b) {
  const WeightMap b_weights = WeightsById(b);
  const std::span<const uint32_t> ids = a.ids();
  const std::span<const double> weights = a.weights();
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (size_t i = 0; i < ids.size(); ++i) {
    double w = weights[i];
    norm_a += w * w;
    dot += w * WeightOf(b_weights, ids[i]);
  }
  for (double w : b.weights()) norm_b += w * w;
  if (norm_a <= 0.0 || norm_b <= 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

double LookupJaccard(const core::IdContextVector& a,
                     const core::IdContextVector& b) {
  const WeightMap a_weights = WeightsById(a);
  const WeightMap b_weights = WeightsById(b);
  const std::span<const uint32_t> ids = a.ids();
  const std::span<const double> weights = a.weights();
  double min_sum = 0.0;
  double max_sum = 0.0;
  for (size_t i = 0; i < ids.size(); ++i) {
    double w = weights[i];
    double v = WeightOf(b_weights, ids[i]);
    min_sum += std::min(w, v);
    max_sum += std::max(w, v);
  }
  const std::span<const uint32_t> other_ids = b.ids();
  for (size_t i = 0; i < other_ids.size(); ++i) {
    if (a_weights.count(other_ids[i]) == 0) max_sum += b.weights()[i];
  }
  return max_sum <= 0.0 ? 0.0 : min_sum / max_sum;
}

}  // namespace xsdf::oracles
