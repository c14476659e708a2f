#ifndef XSDF_SIM_COMBINED_H_
#define XSDF_SIM_COMBINED_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "sim/measure.h"
#include "sim/measure_config.h"

namespace xsdf::sim {

/// Pluggable memo store for combined similarity values, keyed on the
/// packed symmetric concept-pair key (min id in the high 32 bits). An
/// implementation shared across threads must be internally thread-safe;
/// the runtime layer provides a set-associative implementation keyed on
/// (concept pair, measure composition) with hit/miss accounting. Lookup
/// and Insert may race benignly: similarity is deterministic, so a
/// duplicate compute-and-insert stores the same value.
class SimilarityCacheHook {
 public:
  virtual ~SimilarityCacheHook() = default;

  /// Returns true and sets `*value` when `pair_key` is cached.
  virtual bool Lookup(uint64_t pair_key, double* value) = 0;
  /// Stores `value` under `pair_key`.
  virtual void Insert(uint64_t pair_key, double value) = 0;

  /// Probes `count` keys at once: on a hit sets out_values[i] and
  /// out_found[i] = 1, otherwise out_found[i] = 0 (out_values[i] is
  /// left untouched). Semantics and per-key accounting must match a
  /// loop of Lookup() calls — the default does exactly that;
  /// implementations override to pipeline the probes (premixed keys,
  /// prefetched sets).
  virtual void LookupBatch(const uint64_t* keys, size_t count,
                           double* out_values, uint8_t* out_found) {
    for (size_t i = 0; i < count; ++i) {
      out_found[i] = Lookup(keys[i], &out_values[i]) ? 1 : 0;
    }
  }
};

/// Definition 9: Sim(c1, c2) = sum of w_i * Sim_i over a weighted
/// measure composition — by default the paper hybrid w_Edge * Sim_Edge
/// + w_Node * Sim_Node + w_Gloss * Sim_Gloss in equal thirds. Results
/// are memoized per concept pair, which matters because disambiguation
/// evaluates the same pairs repeatedly across sphere contexts.
class CombinedMeasure : public SimilarityMeasure {
 public:
  /// Builds the composition described by `config`, resolving each name
  /// through MeasureRegistry::Global(). `config` must be valid
  /// (Validate() OK — e.g. produced by MeasureConfig::Parse or
  /// MeasureConfig::PaperHybrid); an invalid config aborts, since a
  /// constructor cannot report the error. Fallible callers go through
  /// FromRegistry.
  explicit CombinedMeasure(
      const MeasureConfig& config = MeasureConfig::PaperHybrid());

  /// Builds a combined measure from arbitrary registered measure names
  /// and weights (extensibility hook beyond the three defaults).
  static Result<std::unique_ptr<CombinedMeasure>> FromRegistry(
      const std::vector<std::pair<std::string, double>>& weighted_names);

  /// Same, from a parsed measure config.
  static Result<std::unique_ptr<CombinedMeasure>> FromRegistry(
      const MeasureConfig& config);

  double Similarity(const wordnet::SemanticNetwork& network,
                    wordnet::ConceptId a,
                    wordnet::ConceptId b) const override;

  /// Batch form of Similarity(): out[i] = Similarity(network, a,
  /// others[i]). With an external cache attached the whole batch is
  /// probed through one LookupBatch() (premixed keys, prefetched
  /// sets) before the misses are computed in order; every produced
  /// double, and the per-key hit/miss accounting, is identical to a
  /// loop of Similarity() calls. The sphere-scoring hot loop
  /// (core::ScoreResolvedContext) calls this once per sense list.
  void SimilarityMany(const wordnet::SemanticNetwork& network,
                      wordnet::ConceptId a,
                      std::span<const wordnet::ConceptId> others,
                      double* out) const;

  std::string name() const override { return "combined"; }

  /// The registry composition this measure was built from. Its
  /// Fingerprint() is what an external similarity cache must be keyed
  /// on.
  const MeasureConfig& config() const { return config_; }

  /// Drops the memoization table (call when switching networks).
  void ClearCache() const { cache_.clear(); }
  size_t CacheSize() const { return cache_.size(); }

  /// Installs a non-owning external memo store that replaces the
  /// private per-instance table (which is not thread-safe and grows
  /// unboundedly). While set, the private table is neither read nor
  /// written, so the external store sees every lookup — its hit/miss
  /// counters account exactly for this measure's traffic. Pass nullptr
  /// to restore the private table.
  void set_external_cache(SimilarityCacheHook* cache) {
    external_cache_ = cache;
  }
  SimilarityCacheHook* external_cache() const { return external_cache_; }

  /// The packed symmetric cache key (shared with SimilarityCacheHook
  /// implementations): smaller concept id in the high 32 bits.
  static uint64_t PairKey(wordnet::ConceptId a, wordnet::ConceptId b);

 private:
  struct RawTag {};
  explicit CombinedMeasure(RawTag) {}  // registry path: no defaults

  /// The weighted component sum + clamp shared by Similarity() and
  /// SimilarityMany() (cache-miss path).
  double ComputeUncached(const wordnet::SemanticNetwork& network,
                         wordnet::ConceptId a, wordnet::ConceptId b) const;

  MeasureConfig config_;
  std::vector<std::pair<std::unique_ptr<SimilarityMeasure>, double>>
      components_;
  mutable std::unordered_map<uint64_t, double> cache_;
  SimilarityCacheHook* external_cache_ = nullptr;
};

}  // namespace xsdf::sim

#endif  // XSDF_SIM_COMBINED_H_
