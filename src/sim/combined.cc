#include "sim/combined.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace xsdf::sim {

CombinedMeasure::CombinedMeasure(const MeasureConfig& config)
    : config_(config) {
  Status status = config.Validate();
  if (!status.ok()) {
    std::fprintf(stderr, "CombinedMeasure: invalid measure config: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  for (const auto& [name, weight] : config.entries) {
    // Cannot fail: Validate() resolved every name above.
    auto measure = MeasureRegistry::Global().Create(name);
    components_.emplace_back(std::move(measure).value(), weight);
  }
}

uint64_t CombinedMeasure::PairKey(wordnet::ConceptId a,
                                 wordnet::ConceptId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

double CombinedMeasure::Similarity(const wordnet::SemanticNetwork& network,
                                   wordnet::ConceptId a,
                                   wordnet::ConceptId b) const {
  uint64_t key = 0;
  if (external_cache_ != nullptr) {
    key = PairKey(a, b);
    double cached = 0.0;
    if (external_cache_->Lookup(key, &cached)) return cached;
  }
  double sim = 0.0;
  for (const auto& [measure, weight] : components_) {
    if (weight > 0.0) sim += weight * measure->Similarity(network, a, b);
  }
  if (sim > 1.0) sim = 1.0;
  if (external_cache_ != nullptr) external_cache_->Insert(key, sim);
  return sim;
}

}  // namespace xsdf::sim
