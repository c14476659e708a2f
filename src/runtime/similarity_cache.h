#ifndef XSDF_RUNTIME_SIMILARITY_CACHE_H_
#define XSDF_RUNTIME_SIMILARITY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "runtime/stats.h"
#include "sim/combined.h"

namespace xsdf::runtime {

/// Thread-safe shared memo for sim::CombinedMeasure, shared by every
/// worker of an engine. Entries are keyed on (concept pair, measure
/// composition): the pair key comes from the measure through the
/// SimilarityCacheHook interface, and the fingerprint of the full
/// ordered (measure-name, weight) composition — MeasureConfig::
/// Fingerprint() — is fixed at construction. Keying on the whole
/// composition, not just the three default weights, means two
/// different configs (say the paper hybrid and conceptual-density:1)
/// occupy provably disjoint key spaces and can never alias an entry,
/// even if a future refactor shares one table between them.
///
/// The stored key is a single pre-mixed 64-bit word,
/// Mix64(pair_key) ^ config_fp. Mix64 is bijective, so within one
/// cache instance (one fixed fingerprint) distinct pairs can never
/// collide, and the mixed bits index the table directly.
///
/// Layout is a fixed-capacity 4-way set-associative table whose hit
/// path takes no lock: readers probe the set's four ways and validate
/// against a per-set sequence counter (seqlock), so a hit costs a few
/// loads plus one striped counter increment. Disambiguators probe it
/// only on a miss of their own label-term memo (core::LabelTermMemo).
/// Writers serialize per set through the sequence counter; a full set
/// overwrites a deterministic victim way.
/// Hit/miss/eviction counters are exact (striped relaxed atomics).
///
/// Concurrent Insert order is racy across workers, but cached values
/// are pure functions of the key, so any interleaving stores the same
/// double and batch outputs stay byte-identical for any worker count.
class SimilarityCache : public sim::SimilarityCacheHook {
 public:
  /// `capacity` is rounded up to a power-of-two slot count (>= 64).
  /// `stripe_count` stripes the statistics counters (rounded up to a
  /// power of two); it no longer affects data placement.
  /// `config_fingerprint` is the MeasureConfig::Fingerprint() of the
  /// composition whose values this cache stores.
  SimilarityCache(size_t capacity, size_t stripe_count,
                  uint64_t config_fingerprint);

  bool Lookup(uint64_t pair_key, double* value) override;
  void Insert(uint64_t pair_key, double value) override;

  CacheStats GetStats() const;
  void ResetCounters();

  /// 64-bit fingerprint of a measure composition (bit-exact on the
  /// ordered names and weights) — MeasureConfig::Fingerprint().
  static uint64_t ConfigFingerprint(const sim::MeasureConfig& config);

  /// Test hook: the mixed stored key for `pair_key` under this cache's
  /// fingerprint. Lets tests prove that two caches for different
  /// configs map the same concept pair to different keys (no aliasing
  /// were their tables ever merged).
  uint64_t MixKeyForTest(uint64_t pair_key) const {
    return MixKey(pair_key);
  }

  static constexpr size_t kWays = 4;

 private:
  /// One set: a seqlock (even = stable, odd = writer active) guarding
  /// four (key, value-bits) ways. Key 0 marks an empty way — the one
  /// pair whose mixed key is exactly 0 simply never caches.
  struct alignas(64) Set {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> key[kWays] = {};
    std::atomic<uint64_t> value[kWays] = {};
  };
  struct alignas(64) Stripe {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> fills{0};  ///< empty ways claimed
    std::atomic<uint64_t> read_retries{0};      ///< seqlock reads redone
    std::atomic<uint64_t> write_collisions{0};  ///< seq-CAS acquire misses
  };

  uint64_t MixKey(uint64_t pair_key) const;
  Stripe& StripeFor(size_t set_index) {
    return stripes_[set_index & stripe_mask_];
  }

  uint64_t config_fp_;
  size_t set_mask_ = 0;
  size_t stripe_mask_ = 0;
  std::unique_ptr<Set[]> sets_;
  std::unique_ptr<Stripe[]> stripes_;
};

}  // namespace xsdf::runtime

#endif  // XSDF_RUNTIME_SIMILARITY_CACHE_H_
