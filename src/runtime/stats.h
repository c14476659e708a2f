#ifndef XSDF_RUNTIME_STATS_H_
#define XSDF_RUNTIME_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace xsdf::runtime {

/// Point-in-time counters of one cache (similarity or sense
/// inventory). Hits/misses/evictions accumulate since construction or
/// the last ResetCounters(); entries/capacity describe current content.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Seqlock contention counters (always 0 for mutex-sharded caches):
  /// `read_retries` counts lookup validation rounds discarded because a
  /// writer overlapped; `write_collisions` counts failed attempts to
  /// take a set's sequence lock (another writer held it).
  uint64_t read_retries = 0;
  uint64_t write_collisions = 0;
  size_t entries = 0;
  size_t capacity = 0;
  size_t shards = 0;

  uint64_t lookups() const { return hits + misses; }
  /// Hit fraction in [0, 1]; 0 when no lookups happened.
  double HitRate() const {
    uint64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Snapshot of an engine's lifetime counters (see
/// DisambiguationEngine::stats()). Counter fields reset via
/// ResetCounters(); cache *content* survives resets, which is how a
/// second pass over a corpus measures its warm hit rate.
struct EngineStats {
  uint64_t documents = 0;    ///< jobs completed (ok or failed)
  uint64_t failures = 0;     ///< jobs whose pipeline returned an error
  uint64_t nodes = 0;        ///< labeled-tree nodes across ok documents
  uint64_t assignments = 0;  ///< sense assignments across ok documents
  /// Actual worker-pool size (after `threads: 0` auto-detection).
  int worker_threads = 0;
  /// Intra-document parallelism: documents whose target list was
  /// chunked across workers, and chunks executed by a worker other
  /// than the document's owner (see DisambiguationEngine).
  uint64_t subtree_parallel_docs = 0;
  uint64_t subtree_steals = 0;
  /// High-water mark of per-document front-end scaffolding bytes (the
  /// streaming builder's transient state). Not reset by
  /// ResetCounters() — it describes the worst document seen, not a
  /// rate.
  uint64_t frontend_peak_bytes = 0;
  CacheStats similarity_cache;
  CacheStats sense_cache;
};

/// One-line human-readable rendering of an EngineStats snapshot (the
/// `xsdf batch` stats summary format).
std::string FormatEngineStats(const EngineStats& stats);

}  // namespace xsdf::runtime

#endif  // XSDF_RUNTIME_STATS_H_
