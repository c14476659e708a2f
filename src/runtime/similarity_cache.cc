#include "runtime/similarity_cache.h"

#include <cstring>

namespace xsdf::runtime {

namespace {

/// SplitMix64 finalizer — cheap, well-distributed, and bijective.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

SimilarityCache::SimilarityCache(size_t capacity, size_t stripe_count,
                                 uint64_t config_fingerprint)
    : config_fp_(config_fingerprint) {
  size_t slots = RoundUpPow2(capacity < 64 ? 64 : capacity);
  size_t set_count = slots / kWays;
  set_mask_ = set_count - 1;
  sets_ = std::make_unique<Set[]>(set_count);
  size_t stripes = RoundUpPow2(stripe_count == 0 ? 1 : stripe_count);
  stripe_mask_ = stripes - 1;
  stripes_ = std::make_unique<Stripe[]>(stripes);
}

uint64_t SimilarityCache::ConfigFingerprint(
    const sim::MeasureConfig& config) {
  return config.Fingerprint();
}

uint64_t SimilarityCache::MixKey(uint64_t pair_key) const {
  // Bijective in pair_key for the fixed fingerprint, so no two pairs
  // share a stored key; XOR keeps distinct measure compositions on
  // disjoint key sets if callers ever share one store.
  return Mix64(pair_key) ^ config_fp_;
}

bool SimilarityCache::Lookup(uint64_t pair_key, double* value) {
  const uint64_t key = MixKey(pair_key);
  const size_t set_index = static_cast<size_t>(key) & set_mask_;
  Set& set = sets_[set_index];
  // Seqlock read: probe the ways with relaxed loads, then confirm no
  // writer overlapped. Retries are rare (writes are <1% of traffic).
  bool found = false;
  uint64_t bits = 0;
  uint64_t retries = 0;  // flushed as one fetch_add below
  for (;;) {
    uint64_t before = set.seq.load(std::memory_order_acquire);
    if ((before & 1) == 0) {
      found = false;
      for (size_t w = 0; w < kWays; ++w) {
        if (set.key[w].load(std::memory_order_relaxed) == key) {
          bits = set.value[w].load(std::memory_order_relaxed);
          found = true;
          break;
        }
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (set.seq.load(std::memory_order_relaxed) == before) break;
    }
    ++retries;
  }
  Stripe& stripe = StripeFor(set_index);
  if (retries != 0) {
    stripe.read_retries.fetch_add(retries, std::memory_order_relaxed);
  }
  if (!found) {
    stripe.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  stripe.hits.fetch_add(1, std::memory_order_relaxed);
  *value = BitsToDouble(bits);
  return true;
}

void SimilarityCache::Insert(uint64_t pair_key, double value) {
  const uint64_t key = MixKey(pair_key);
  if (key == 0) return;  // the empty sentinel; never cached
  const size_t set_index = static_cast<size_t>(key) & set_mask_;
  Set& set = sets_[set_index];
  // Writer lock: bump seq to odd. Readers retry while it is odd.
  uint64_t seq = set.seq.load(std::memory_order_relaxed);
  uint64_t collisions = 0;
  for (;;) {
    if ((seq & 1) == 0 &&
        set.seq.compare_exchange_weak(seq, seq + 1,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      break;
    }
    ++collisions;
    if ((seq & 1) != 0) seq = set.seq.load(std::memory_order_relaxed);
  }
  size_t way = kWays;     // chosen slot
  size_t empty = kWays;   // first empty way, if any
  for (size_t w = 0; w < kWays; ++w) {
    uint64_t k = set.key[w].load(std::memory_order_relaxed);
    if (k == key) {
      way = w;
      break;
    }
    if (k == 0 && empty == kWays) empty = w;
  }
  Stripe& stripe = StripeFor(set_index);
  if (collisions != 0) {
    stripe.write_collisions.fetch_add(collisions, std::memory_order_relaxed);
  }
  if (way == kWays) {
    if (empty != kWays) {
      way = empty;
      stripe.fills.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Full set: overwrite a victim chosen from the key's high bits
      // (deterministic, so single-worker runs are reproducible).
      way = static_cast<size_t>(key >> 62) & (kWays - 1);
      stripe.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  set.value[way].store(DoubleBits(value), std::memory_order_relaxed);
  set.key[way].store(key, std::memory_order_relaxed);
  set.seq.store(seq + 2, std::memory_order_release);
}

CacheStats SimilarityCache::GetStats() const {
  CacheStats stats;
  stats.capacity = (set_mask_ + 1) * kWays;
  stats.shards = stripe_mask_ + 1;
  uint64_t fills = 0;
  for (size_t i = 0; i <= stripe_mask_; ++i) {
    stats.hits += stripes_[i].hits.load(std::memory_order_relaxed);
    stats.misses += stripes_[i].misses.load(std::memory_order_relaxed);
    stats.evictions +=
        stripes_[i].evictions.load(std::memory_order_relaxed);
    stats.read_retries +=
        stripes_[i].read_retries.load(std::memory_order_relaxed);
    stats.write_collisions +=
        stripes_[i].write_collisions.load(std::memory_order_relaxed);
    fills += stripes_[i].fills.load(std::memory_order_relaxed);
  }
  stats.entries = static_cast<size_t>(fills);
  return stats;
}

void SimilarityCache::ResetCounters() {
  // Occupancy (`fills`) describes content, not traffic — recompute it
  // after zeroing so `entries` survives the reset like the LRU did.
  uint64_t occupied = 0;
  for (size_t s = 0; s <= set_mask_; ++s) {
    for (size_t w = 0; w < kWays; ++w) {
      if (sets_[s].key[w].load(std::memory_order_relaxed) != 0) ++occupied;
    }
  }
  for (size_t i = 0; i <= stripe_mask_; ++i) {
    stripes_[i].hits.store(0, std::memory_order_relaxed);
    stripes_[i].misses.store(0, std::memory_order_relaxed);
    stripes_[i].evictions.store(0, std::memory_order_relaxed);
    stripes_[i].read_retries.store(0, std::memory_order_relaxed);
    stripes_[i].write_collisions.store(0, std::memory_order_relaxed);
    stripes_[i].fills.store(i == 0 ? occupied : 0,
                            std::memory_order_relaxed);
  }
}

}  // namespace xsdf::runtime
