#ifndef XSDF_SIM_COMBINED_H_
#define XSDF_SIM_COMBINED_H_

#include <cstdint>
#include <memory>

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
};

/// Definition 9: Sim(c1, c2) = sum of w_i * Sim_i over a weighted
/// measure composition — by default the paper hybrid w_Edge * Sim_Edge
/// + w_Node * Sim_Node + w_Gloss * Sim_Gloss in equal thirds. The
/// measure holds no memo of its own: the disambiguator memoizes whole
/// per-label terms (core::LabelTermMemo), and an optional external
/// cache can front the pair values. Without one, an instance may be
/// shared across threads.
class CombinedMeasure : public SimilarityMeasure {
 public:
  /// Builds the composition described by `config`, resolving each name
  /// through MeasureRegistry::Global(). `config` must be valid
  /// (Validate() OK — e.g. produced by MeasureConfig::Parse or
  /// MeasureConfig::PaperHybrid); an invalid config aborts, since a
  /// constructor cannot report the error. Fallible callers validate
  /// first (MeasureConfig::Parse does).
  explicit CombinedMeasure(
      const MeasureConfig& config = MeasureConfig::PaperHybrid());

  double Similarity(const wordnet::SemanticNetwork& network,
                    wordnet::ConceptId a,
                    wordnet::ConceptId b) const override;

  std::string name() const override { return "combined"; }

  /// The registry composition this measure was built from. Its
  /// Fingerprint() is what an external similarity cache must be keyed
  /// on.
  const MeasureConfig& config() const { return config_; }

  /// Installs a non-owning external memo store that every Similarity()
  /// call probes first and fills on a miss, so its hit/miss counters
  /// account exactly for this measure's traffic. Pass nullptr to
  /// compute every pair directly.
  void set_external_cache(SimilarityCacheHook* cache) {
    external_cache_ = cache;
  }

  /// The packed symmetric cache key (shared with SimilarityCacheHook
  /// implementations): smaller concept id in the high 32 bits.
  static uint64_t PairKey(wordnet::ConceptId a, wordnet::ConceptId b);

 private:
  MeasureConfig config_;
  std::vector<std::pair<std::unique_ptr<SimilarityMeasure>, double>>
      components_;
  SimilarityCacheHook* external_cache_ = nullptr;
};

}  // namespace xsdf::sim

#endif  // XSDF_SIM_COMBINED_H_
