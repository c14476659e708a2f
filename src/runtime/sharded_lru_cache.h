#ifndef XSDF_RUNTIME_SHARDED_LRU_CACHE_H_
#define XSDF_RUNTIME_SHARDED_LRU_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/stats.h"

namespace xsdf::runtime {

/// A thread-safe LRU cache striped into independently locked shards.
/// A key's shard is fixed (hash(key) % shards), so concurrent lookups
/// of different keys mostly touch different mutexes; within a shard,
/// recency order and eviction are exact LRU. Counters (hit/miss/
/// eviction) are kept per shard under the shard lock — exact, not
/// sampled — and aggregated by GetStats().
///
/// Capacity is split evenly across shards (at least one entry each),
/// so per-shard eviction can trigger before the global entry count
/// reaches `capacity` when keys hash unevenly; with shards = 1 the
/// cache is a textbook LRU, which the unit tests rely on.
///
/// A benchmark-only leftover: its one user is SenseInventoryCache,
/// which no production path constructs (see core::SenseInventory).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(size_t capacity, size_t shard_count = 16) {
    if (shard_count == 0) shard_count = 1;
    if (capacity < shard_count) capacity = shard_count;
    shard_capacity_ = capacity / shard_count;
    shards_.reserve(shard_count);
    for (size_t i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// Returns true and copies the value when present; promotes the
  /// entry to most-recently-used. Counts one hit or one miss.
  bool Lookup(const Key& key, Value* value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.misses;
      return false;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    *value = it->second->second;
    return true;
  }

  /// Inserts or overwrites; the entry becomes most-recently-used. The
  /// shard's least-recently-used entry is evicted when it is full.
  void Insert(const Key& key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.map.emplace(key, shard.lru.begin());
    if (shard.map.size() > shard_capacity_) {
      shard.map.erase(shard.lru.back().first);
      shard.lru.pop_back();
      ++shard.evictions;
    }
  }

  /// Lookup, or compute-and-insert on miss. `compute` runs outside the
  /// shard lock; two threads missing the same key may both compute, and
  /// the later insert wins — benign when `compute` is deterministic.
  template <typename Fn>
  Value GetOrCompute(const Key& key, Fn&& compute) {
    Value value{};
    if (Lookup(key, &value)) return value;
    value = compute();
    Insert(key, value);
    return value;
  }

  CacheStats GetStats() const {
    CacheStats stats;
    stats.capacity = shard_capacity_ * shards_.size();
    stats.shards = shards_.size();
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      stats.hits += shard->hits;
      stats.misses += shard->misses;
      stats.evictions += shard->evictions;
      stats.entries += shard->map.size();
    }
    return stats;
  }

  /// Zeroes hit/miss/eviction counters; cached entries are retained.
  void ResetCounters() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->hits = shard->misses = shard->evictions = 0;
    }
  }

  /// Drops every entry (counters are retained).
  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->map.clear();
      shard->lru.clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->map.size();
    }
    return total;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<Key, Value>> lru;
    std::unordered_map<Key,
                       typename std::list<std::pair<Key, Value>>::iterator,
                       Hash>
        map;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[hasher_(key) % shards_.size()];
  }

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Hash hasher_;
};

}  // namespace xsdf::runtime

#endif  // XSDF_RUNTIME_SHARDED_LRU_CACHE_H_
