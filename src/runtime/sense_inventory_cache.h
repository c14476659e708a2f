#ifndef XSDF_RUNTIME_SENSE_INVENTORY_CACHE_H_
#define XSDF_RUNTIME_SENSE_INVENTORY_CACHE_H_

#include <cstdint>
#include <memory>

#include "core/disambiguator.h"
#include "runtime/sharded_lru_cache.h"
#include "runtime/stats.h"

namespace xsdf::runtime {

/// Thread-safe sharded LRU over the sense inventory, keyed by interned
/// label id (one integer hash per lookup) and storing
/// shared_ptr<const SenseEntry>: a hit is a refcount bump, never a
/// candidate-vector copy, and an entry handed to a worker stays valid
/// after the cache evicts it — the worker's shared_ptr keeps the entry
/// alive, so eviction under concurrent load can never invalidate
/// in-flight scoring (the eviction-safety regression test pins this).
///
/// label id -> candidates is a pure function of the label space (and
/// its network), so one cache instance must only ever be used with a
/// single LabelSpace. A miss copies space.Senses(label_id).candidates
/// from the space the caller names.
///
/// A benchmark-only leftover: the engine no longer builds one, and
/// nothing in the pipeline reads it, since every target reads its
/// candidates by reference from the LabelSpace memo. It stays compiled
/// only because the benchmark program (perfbench/) still constructs it;
/// delete it with ShardedLruCache and core::SenseInventory when the
/// benchmark is ported (ROADMAP item 7).
class SenseInventoryCache : public core::SenseInventory {
 public:
  explicit SenseInventoryCache(size_t capacity, size_t shard_count = 8);

  std::shared_ptr<const core::SenseEntry> Entry(core::LabelSpace& space,
                                                uint32_t label_id) override;

  CacheStats GetStats() const { return cache_.GetStats(); }
  void ResetCounters() { cache_.ResetCounters(); }
  void Clear() { cache_.Clear(); }

 private:
  ShardedLruCache<uint32_t, std::shared_ptr<const core::SenseEntry>> cache_;
};

}  // namespace xsdf::runtime

#endif  // XSDF_RUNTIME_SENSE_INVENTORY_CACHE_H_
