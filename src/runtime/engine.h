#ifndef XSDF_RUNTIME_ENGINE_H_
#define XSDF_RUNTIME_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/disambiguator.h"
#include "core/tree_builder.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "runtime/job_queue.h"
#include "runtime/similarity_cache.h"
#include "runtime/stats.h"
#include "wordnet/semantic_network.h"
#include "xml/parser.h"

namespace xsdf::runtime {

/// One document to disambiguate: a display name plus the XML text.
/// `index` is the slot the result lands in; RunBatch() assigns it from
/// the job's position, so callers only fill name and xml.
struct DocumentJob {
  size_t index = 0;
  std::string name;
  std::string xml;
  /// Absolute obs::MonotonicNowNs() deadline; 0 = none. A job whose
  /// deadline has passed when a worker dequeues it is failed without
  /// being processed (deadline_exceeded in the result) — under
  /// overload, expired work is shed instead of run late.
  uint64_t deadline_ns = 0;
  /// Optional per-request span sink (non-owning; must outlive the
  /// job's completion). When set, the worker records queue_wait and
  /// the engine stages (parse/disambiguate/serialize) into it, and the
  /// result carries queue_wait_us/run_us/worker — the serve layer's
  /// request-scoped observability. Null (the default) adds no clock
  /// reads to the batch path.
  obs::RequestTrace* rtrace = nullptr;
};

/// The outcome for one job. Results of a batch are ordered by job
/// index regardless of which worker ran what when — the scheduling
/// order never leaks into the output, which is what makes N-worker
/// runs byte-identical to 1-worker runs.
struct DocumentResult {
  size_t index = 0;
  std::string name;
  bool ok = false;
  bool deadline_exceeded = false;  ///< expired before a worker ran it
  std::string error;           ///< status text when !ok
  std::string semantic_xml;    ///< SemanticTreeToXml() of the output
  size_t node_count = 0;       ///< labeled-tree nodes
  size_t assignment_count = 0; ///< disambiguated nodes
  /// Worker-pool index that handled (or shed) the job; -1 when the job
  /// never reached a worker (queue closed mid-batch).
  int worker = -1;
  /// Timed only when the engine is instrumented or the job carries an
  /// rtrace (0 otherwise): time on the admission queue, and worker
  /// processing time.
  uint64_t queue_wait_us = 0;
  uint64_t run_us = 0;
};

struct EngineOptions {
  /// Fixed worker-pool size; 0 auto-detects one worker per hardware
  /// thread (negative values clamp to 1). The resolved size is
  /// reported as EngineStats::worker_threads.
  int threads = 4;
  /// Bounded MPMC job-queue capacity; producers block when full.
  size_t queue_capacity = 64;

  /// Shared seqlock SimilarityCache fronting sim::CombinedMeasure,
  /// keyed on (concept pair, measure composition). Workers probe it
  /// only on a miss of their Disambiguator's label-term memo. Off =
  /// those misses compute every pair directly.
  bool enable_similarity_cache = true;

  /// Fixed cache sizes, not settings: nothing sets them. They stay
  /// members (static, so EngineOptions carries no settable copy)
  /// because the benchmark reads them through an EngineOptions value;
  /// a change to the benchmark can move them out.
  static constexpr size_t similarity_cache_capacity = 1 << 16;
  static constexpr size_t similarity_cache_shards = 16;
  /// Never read by the engine, which builds no sense cache (targets
  /// read their candidates from the label space): benchmark-only
  /// leftovers that size the benchmark's own SenseInventoryCache (see
  /// core::SenseInventory).
  static constexpr size_t sense_cache_capacity = 4096;
  static constexpr size_t sense_cache_shards = 8;

  /// Parser hardening budgets applied to every document (the CLI's
  /// --max-input-bytes / --max-depth land here).
  xml::ParseLimits parse_limits;

  /// Pipeline configuration applied by every worker.
  core::DisambiguatorOptions disambiguator;

  /// Optional observability sinks (non-owning; must outlive the
  /// engine). They are propagated to every worker's Disambiguator.
  /// With a registry attached the engine records per-stage latency
  /// histograms (stage.parse_us / serialize_us, plus the core stages),
  /// queue behavior (engine.job_wait_us / job_run_us / queue_depth) and
  /// lifetime counters; with a trace session attached every worker
  /// emits per-document spans under its own tid. Both null (the
  /// default) keeps the hot path free of even clock reads.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSession* trace = nullptr;
};

/// A concurrent batch-disambiguation runtime: one immutable
/// SemanticNetwork shared read-only across a fixed pool of workers,
/// which pull DocumentJobs from a bounded MPMC queue and run the full
/// XSDF pipeline (parse -> select -> sphere contexts -> disambiguate
/// -> serialize) with per-worker scratch state (each worker owns its
/// Disambiguator). The label space (with its memoized senses and
/// candidates) and the pairwise-similarity cache are shared across
/// workers and persist across batches, so repeated corpora run hot.
///
/// The network must outlive the engine and be finalized()
/// (FinalizeFrequencies() makes all const accessors pure reads — see
/// the SemanticNetwork thread-safety contract).
///
/// Each document's targets are decided in chunks, one
/// Disambiguator::DisambiguateTargets call each. When a multi-worker
/// engine selects at least 64 targets in one document, the owner splits
/// them into 32-target chunks and publishes helper tickets on the shared
/// job queue so idle workers steal chunks — 8 workers saturate on a
/// single giant file; otherwise the owner runs one chunk. Placement
/// never affects output: per-target disambiguation is pure, and each
/// chunk writes only its targets' slots of the dense assignment column.
///
/// RunBatch() may be called repeatedly; results are deterministic:
/// identical jobs + options produce byte-identical semantic_xml for
/// any worker count, because every document is processed independently
/// and caches only memoize pure functions.
class DisambiguationEngine {
 public:
  explicit DisambiguationEngine(const wordnet::SemanticNetwork* network,
                                EngineOptions options = {});
  ~DisambiguationEngine();

  DisambiguationEngine(const DisambiguationEngine&) = delete;
  DisambiguationEngine& operator=(const DisambiguationEngine&) = delete;

  /// Runs every job through the pool and blocks until all are done.
  /// The returned vector is parallel to `jobs` (result[i] is jobs[i]).
  std::vector<DocumentResult> RunBatch(std::vector<DocumentJob> jobs);

  /// Admission-controlled single-job entry point for resident serving:
  /// enqueues without blocking and waits for the result, or returns
  /// nullopt immediately when the queue is full or closed (the caller
  /// turns that into a 429). Safe to call concurrently with RunBatch()
  /// and from many request threads at once.
  std::optional<DocumentResult> TryRunOne(DocumentJob job);

  /// Point-in-time snapshot of lifetime counters and cache state.
  EngineStats stats() const;

  /// Zeroes document and cache hit/miss/eviction counters; cache
  /// *contents* are retained (so the next pass measures warm rates).
  /// The attached metrics registry (if any) is NOT reset — its
  /// counters/histograms aggregate across passes by design.
  void ResetCounters();

  /// Publishes the current EngineStats snapshot (documents, caches —
  /// including seqlock retry/collision counters) as gauges into the
  /// attached metrics registry; no-op without one. Call before
  /// exporting the registry so cache state lands in the same file as
  /// the latency histograms.
  void PublishStatsToMetrics();

  const EngineOptions& options() const { return options_; }
  int thread_count() const { return static_cast<int>(workers_.size()); }
  /// Jobs currently waiting for a worker — the live admission-queue
  /// depth (the serve layer derives Retry-After from it).
  size_t queue_depth() const { return queue_.size(); }
  size_t queue_capacity() const { return queue_.capacity(); }

 private:
  struct Batch;
  struct SubtreeWork;
  struct WorkItem {
    DocumentJob job;
    Batch* batch = nullptr;
    uint64_t enqueue_ns = 0;  ///< MonotonicNowNs() at Push; 0 = untimed
    /// When set, this item is a helper ticket for another worker's
    /// in-flight document: the dequeuing worker steals target chunks
    /// from it instead of processing `job`/`batch` (both unset).
    std::shared_ptr<SubtreeWork> subtree;
  };
  /// Engine-level instrument handles, resolved once against
  /// options_.metrics (all null without a registry).
  struct Instruments {
    obs::Counter* documents = nullptr;
    obs::Counter* failures = nullptr;
    obs::Counter* deadline_expired = nullptr;
    obs::Counter* nodes = nullptr;
    obs::Counter* assignments = nullptr;
    obs::Histogram* job_wait_us = nullptr;
    obs::Histogram* job_run_us = nullptr;
    obs::Histogram* queue_depth = nullptr;
    obs::Histogram* parse_us = nullptr;
    obs::Histogram* serialize_us = nullptr;
  };

  void WorkerLoop(int worker_index);
  /// One document through the worker's own front-end cache,
  /// disambiguator and writer.
  DocumentResult Process(const core::Disambiguator& disambiguator,
                         core::TreeBuildCache& tree_cache,
                         core::SemanticXmlWriter& writer,
                         const DocumentJob& job, int worker_index);

  /// Selection + per-target disambiguation for one document: the target
  /// list in chunks that other workers may steal when there are others
  /// and the list is long enough (one chunk the owner runs when not).
  /// Byte-identical to RunOnTree.
  Result<core::SemanticTree> DisambiguateTree(
      const core::Disambiguator& disambiguator, xml::LabeledTree tree,
      int worker_index);

  /// Claims and runs chunks of `work` until none remain. Called by the
  /// owning worker (which then waits for stolen chunks to finish) and
  /// by any worker that dequeues one of the helper tickets.
  void RunSubtreeChunks(SubtreeWork& work,
                        const core::Disambiguator& disambiguator,
                        int worker_index);

  /// Raises the lifetime front-end scaffolding high-water mark.
  void NoteFrontendPeak(uint64_t bytes);

  const wordnet::SemanticNetwork* network_;
  EngineOptions options_;
  Instruments ins_;
  obs::TraceSession* trace_ = nullptr;
  /// The engine-wide label id space: one instance shared by every
  /// worker's tree builds and disambiguators, so label ids and their
  /// memoized senses agree across threads.
  std::unique_ptr<core::LabelSpace> label_space_;
  std::unique_ptr<SimilarityCache> similarity_cache_;
  BoundedJobQueue<WorkItem> queue_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> documents_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> nodes_{0};
  std::atomic<uint64_t> assignments_{0};
  std::atomic<uint64_t> subtree_parallel_docs_{0};
  std::atomic<uint64_t> subtree_steals_{0};
  /// Helper tickets currently on the queue or being drained — the live
  /// engine.subtree_queue_depth gauge.
  std::atomic<uint64_t> subtree_tickets_{0};
  std::atomic<uint64_t> frontend_peak_bytes_{0};
};

}  // namespace xsdf::runtime

#endif  // XSDF_RUNTIME_ENGINE_H_
