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

Result<std::unique_ptr<CombinedMeasure>> CombinedMeasure::FromRegistry(
    const std::vector<std::pair<std::string, double>>& weighted_names) {
  MeasureConfig config;
  config.entries = weighted_names;
  return FromRegistry(config);
}

Result<std::unique_ptr<CombinedMeasure>> CombinedMeasure::FromRegistry(
    const MeasureConfig& config) {
  Status status = config.Validate();
  if (!status.ok()) return status;
  auto combined =
      std::unique_ptr<CombinedMeasure>(new CombinedMeasure(RawTag{}));
  combined->config_ = config;
  for (const auto& [name, weight] : config.entries) {
    auto measure = MeasureRegistry::Global().Create(name);
    if (!measure.ok()) return measure.status();
    combined->components_.emplace_back(std::move(measure).value(), weight);
  }
  return combined;
}

uint64_t CombinedMeasure::PairKey(wordnet::ConceptId a,
                                 wordnet::ConceptId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

double CombinedMeasure::ComputeUncached(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId a,
    wordnet::ConceptId b) const {
  double sim = 0.0;
  for (const auto& [measure, weight] : components_) {
    if (weight > 0.0) sim += weight * measure->Similarity(network, a, b);
  }
  if (sim > 1.0) sim = 1.0;
  return sim;
}

double CombinedMeasure::Similarity(const wordnet::SemanticNetwork& network,
                                   wordnet::ConceptId a,
                                   wordnet::ConceptId b) const {
  const uint64_t key = PairKey(a, b);
  if (external_cache_ != nullptr) {
    double cached = 0.0;
    if (external_cache_->Lookup(key, &cached)) return cached;
  } else {
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  double sim = ComputeUncached(network, a, b);
  if (external_cache_ != nullptr) {
    external_cache_->Insert(key, sim);
  } else {
    cache_.emplace(key, sim);
  }
  return sim;
}

void CombinedMeasure::SimilarityMany(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId a,
    std::span<const wordnet::ConceptId> others, double* out) const {
  const size_t n = others.size();
  if (n == 0) return;
  thread_local std::vector<uint64_t> keys;
  thread_local std::vector<uint8_t> found;
  keys.resize(n);
  found.assign(n, 0);
  for (size_t i = 0; i < n; ++i) keys[i] = PairKey(a, others[i]);
  if (external_cache_ != nullptr) {
    external_cache_->LookupBatch(keys.data(), n, out, found.data());
  } else {
    for (size_t i = 0; i < n; ++i) {
      auto it = cache_.find(keys[i]);
      if (it != cache_.end()) {
        out[i] = it->second;
        found[i] = 1;
      }
    }
  }
  // Misses computed (and inserted) in index order — the same compute
  // and insert sequence a Similarity() loop would run, so cached
  // values and scores match it bit for bit.
  for (size_t i = 0; i < n; ++i) {
    if (found[i] != 0) continue;
    out[i] = ComputeUncached(network, a, others[i]);
    if (external_cache_ != nullptr) {
      external_cache_->Insert(keys[i], out[i]);
    } else {
      cache_.emplace(keys[i], out[i]);
    }
  }
}

}  // namespace xsdf::sim
