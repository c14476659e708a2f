#include "runtime/engine.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <span>
#include <utility>

#include "common/strings.h"
#include "core/streaming_builder.h"

namespace xsdf::runtime {

namespace {

/// A document with at least kSubtreeMinTargets targets is split into
/// kSubtreeChunkTargets-sized chunks that idle workers may steal; a
/// shorter one is a single chunk its owner runs.
constexpr size_t kSubtreeMinTargets = 64;
constexpr size_t kSubtreeChunkTargets = 32;

}  // namespace

/// Completion bookkeeping for one RunBatch() call. Workers write each
/// result into its own pre-sized slot (no two jobs share an index, so
/// no data race) and the last one signals the waiting producer.
struct DisambiguationEngine::Batch {
  explicit Batch(size_t job_count)
      : results(job_count), remaining(job_count) {}

  std::vector<DocumentResult> results;
  std::mutex mu;
  std::condition_variable done;
  size_t remaining;

  void Complete(DocumentResult result) {
    size_t index = result.index;
    std::lock_guard<std::mutex> lock(mu);
    results[index] = std::move(result);
    // Notify while still holding the lock: the waiter in RunBatch()
    // destroys this Batch as soon as it observes remaining == 0, so an
    // unlocked notify could touch a destroyed condition variable.
    if (--remaining == 0) done.notify_all();
  }
};

/// Shared state for one document's target chunks. The owning worker
/// keeps it on its stack frame (via shared_ptr, so late-arriving helper
/// tickets stay safe after the owner moves on) and blocks until
/// chunks_done reaches chunk_count. `tree`, `targets` and `assignments`
/// point into the owner's frame: a worker only dereferences them while
/// it holds a claimed chunk, every claim precedes its chunks_done
/// increment, and the owner cannot unwind before the final increment —
/// so the pointers are never read after they die. Workers that dequeue
/// a ticket after all chunks are claimed observe next_chunk >=
/// chunk_count and return without touching any of them.
struct DisambiguationEngine::SubtreeWork {
  const xml::LabeledTree* tree = nullptr;
  std::span<const xml::NodeId> targets;
  /// Sized for the whole tree before any chunk runs; each chunk writes
  /// the slots of its own targets, which no other chunk touches, and
  /// the owner reads them once its wait has seen every chunk done.
  core::AssignmentColumn* assignments = nullptr;
  size_t chunk_size = 0;
  size_t chunk_count = 0;
  int owner_worker = -1;
  std::atomic<size_t> next_chunk{0};
  std::mutex mu;
  std::condition_variable done_cv;
  /// Guarded by mu: finished chunks, the first chunk error, and the
  /// stage times and memo counts summed over every chunk (whichever
  /// worker ran it), which the owner records as the document's one
  /// sample per stage and one add per counter.
  size_t chunks_done = 0;
  Status status;
  core::Disambiguator::StageTimes times;
};

DisambiguationEngine::DisambiguationEngine(
    const wordnet::SemanticNetwork* network, EngineOptions options)
    : network_(network),
      options_(options),
      trace_(options.trace),
      queue_(options.queue_capacity) {
  if (options_.threads == 0) {
    // Auto-detect: one worker per hardware thread.
    // hardware_concurrency() may return 0 when the platform cannot
    // tell; the clamp below then falls back to a single worker.
    options_.threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (options_.threads < 1) options_.threads = 1;
  // Workers construct their Disambiguators from these options, so the
  // sinks reach the core stages too.
  options_.disambiguator.metrics = options_.metrics;
  options_.disambiguator.trace = options_.trace;
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    ins_.documents = m->GetCounter("engine.documents");
    ins_.failures = m->GetCounter("engine.failures");
    ins_.deadline_expired = m->GetCounter("engine.deadline_expired");
    ins_.nodes = m->GetCounter("engine.nodes");
    ins_.assignments = m->GetCounter("engine.assignments");
    ins_.job_wait_us = m->GetHistogram("engine.job_wait_us");
    ins_.job_run_us = m->GetHistogram("engine.job_run_us");
    ins_.queue_depth = m->GetHistogram(
        "engine.queue_depth", {0, 1, 2, 4, 8, 16, 32, 64, 128, 256});
    ins_.parse_us = m->GetHistogram("stage.parse_us");
    ins_.serialize_us = m->GetHistogram("stage.serialize_us");
  }
  label_space_ = std::make_unique<core::LabelSpace>(network_);
  options_.disambiguator.label_space = label_space_.get();
  if (options_.enable_similarity_cache) {
    // Keyed on the full effective composition: a cache built for one
    // --measures config can never serve (or be polluted by) another.
    similarity_cache_ = std::make_unique<SimilarityCache>(
        options_.similarity_cache_capacity,
        options_.similarity_cache_shards,
        SimilarityCache::ConfigFingerprint(
            options_.disambiguator.EffectiveMeasureConfig()));
    options_.disambiguator.similarity_cache = similarity_cache_.get();
  }
  workers_.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

DisambiguationEngine::~DisambiguationEngine() {
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();
}

void DisambiguationEngine::WorkerLoop(int worker_index) {
  if (trace_ != nullptr) {
    // Register this worker's span buffer up front so the exported
    // trace has one stable tid (and name) per worker.
    trace_->GetThreadLog()->set_name(StrFormat("worker-%d", worker_index));
  }
  // Per-worker scratch: the Disambiguator (with its label-term memo),
  // the pre-processing cache and the writer (with its concept runs)
  // are private to this thread; only the network, the label space and
  // the engine caches are shared.
  core::Disambiguator disambiguator(network_, options_.disambiguator);
  core::TreeBuildCache tree_cache;
  core::SemanticXmlWriter writer(*network_);
  while (auto item = queue_.Pop()) {
    if (item->subtree != nullptr) {
      // Helper ticket: steal target chunks from another worker's
      // in-flight document. Deliberately none of the per-document
      // bookkeeping below — the owner's dequeue already accounted for
      // the document (engine.documents must equal stage.parse_us
      // samples, the invariant tools/validate_obs.py checks).
      RunSubtreeChunks(*item->subtree, disambiguator, worker_index);
      subtree_tickets_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (ins_.queue_depth != nullptr) {
      ins_.queue_depth->Record(queue_.size());
    }
    uint64_t queue_wait_us = 0;
    if (item->enqueue_ns != 0) {
      // enqueue_ns is only stamped when someone wants the timing (the
      // registry's histogram or this job's request trace), so one
      // clock read covers both.
      const uint64_t dequeue_ns = obs::MonotonicNowNs();
      queue_wait_us = (dequeue_ns - item->enqueue_ns + 500) / 1000;
      if (ins_.job_wait_us != nullptr) {
        ins_.job_wait_us->Record(queue_wait_us);
      }
      if (item->job.rtrace != nullptr) {
        item->job.rtrace->Add("queue_wait", item->enqueue_ns,
                              dequeue_ns - item->enqueue_ns);
      }
    }
    if (item->job.deadline_ns != 0 &&
        obs::MonotonicNowNs() >= item->job.deadline_ns) {
      // Expired while queued: shed it unprocessed. Deliberately not
      // counted as an engine document — engine.documents stays equal
      // to the number of documents that entered the parse stage (the
      // invariant tools/validate_obs.py checks).
      DocumentResult result;
      result.index = item->job.index;
      result.name = item->job.name;
      result.deadline_exceeded = true;
      result.error = "deadline exceeded before processing began";
      result.worker = worker_index;
      result.queue_wait_us = queue_wait_us;
      if (ins_.deadline_expired != nullptr) ins_.deadline_expired->Increment();
      item->batch->Complete(std::move(result));
      continue;
    }
    const bool time_run =
        ins_.job_run_us != nullptr || item->job.rtrace != nullptr;
    const uint64_t run_start = time_run ? obs::MonotonicNowNs() : 0;
    DocumentResult result =
        Process(disambiguator, tree_cache, writer, item->job, worker_index);
    result.worker = worker_index;
    result.queue_wait_us = queue_wait_us;
    if (time_run) {
      result.run_us = (obs::MonotonicNowNs() - run_start + 500) / 1000;
      if (ins_.job_run_us != nullptr) {
        ins_.job_run_us->Record(result.run_us);
      }
    }
    documents_.fetch_add(1, std::memory_order_relaxed);
    if (ins_.documents != nullptr) ins_.documents->Increment();
    if (result.ok) {
      nodes_.fetch_add(result.node_count, std::memory_order_relaxed);
      assignments_.fetch_add(result.assignment_count,
                             std::memory_order_relaxed);
      if (ins_.nodes != nullptr) ins_.nodes->Increment(result.node_count);
      if (ins_.assignments != nullptr) {
        ins_.assignments->Increment(result.assignment_count);
      }
    } else {
      failures_.fetch_add(1, std::memory_order_relaxed);
      if (ins_.failures != nullptr) ins_.failures->Increment();
    }
    item->batch->Complete(std::move(result));
  }
}

DocumentResult DisambiguationEngine::Process(
    const core::Disambiguator& disambiguator,
    core::TreeBuildCache& tree_cache, core::SemanticXmlWriter& writer,
    const DocumentJob& job, int worker_index) {
  DocumentResult result;
  result.index = job.index;
  result.name = job.name;
  // The pipeline stages are run individually (rather than through
  // RunOnXml) so each gets its own span and latency histogram; the
  // composition is identical, so results are byte-for-byte the same.
  obs::Span doc_span(trace_, "document", job.name);
  xml::ParseOptions parse_options;
  parse_options.limits = options_.parse_limits;
  xsdf::Result<xml::LabeledTree> tree = [&] {
    // Fused parse + tree build: one streaming pass, no DOM. The whole
    // front end lands in stage.parse_us, one sample per document, so
    // its sample count matches engine.documents (tools/validate_obs.py).
    obs::RequestSpan rspan(job.rtrace, "parse");
    obs::StageTimer timer(ins_.parse_us, trace_, "parse");
    core::StreamingBuildStats build_stats;
    auto built = core::BuildTreeStreaming(
        job.xml, *network_, parse_options,
        options_.disambiguator.include_values, label_space_.get(),
        &tree_cache, &build_stats);
    NoteFrontendPeak(build_stats.scaffold_peak_bytes);
    return built;
  }();
  if (!tree.ok()) {
    result.error = tree.status().ToString();
    return result;
  }
  auto semantic_tree = [&] {
    obs::RequestSpan rspan(job.rtrace, "disambiguate");
    return DisambiguateTree(disambiguator, std::move(tree).value(),
                            worker_index);
  }();
  if (!semantic_tree.ok()) {
    result.error = semantic_tree.status().ToString();
    return result;
  }
  result.ok = true;
  result.node_count = semantic_tree->tree.size();
  result.assignment_count = semantic_tree->assignments.size();
  {
    obs::RequestSpan rspan(job.rtrace, "serialize");
    obs::StageTimer timer(ins_.serialize_us, trace_, "serialize");
    result.semantic_xml = writer.Write(*semantic_tree);
  }
  return result;
}

Result<core::SemanticTree> DisambiguationEngine::DisambiguateTree(
    const core::Disambiguator& disambiguator, xml::LabeledTree tree,
    int worker_index) {
  const std::vector<xml::NodeId> targets = disambiguator.SelectTargets(tree);
  // Stealing needs another worker, and pays only on a long target list.
  const bool fan_out =
      workers_.size() > 1 && targets.size() >= kSubtreeMinTargets;
  core::SemanticTree result;
  result.tree = std::move(tree);
  result.assignments.Reset(result.tree.size());
  auto work = std::make_shared<SubtreeWork>();
  work->tree = &result.tree;
  work->targets = targets;
  work->assignments = &result.assignments;
  work->chunk_size =
      fan_out ? kSubtreeChunkTargets : std::max<size_t>(targets.size(), 1);
  work->chunk_count =
      (targets.size() + work->chunk_size - 1) / work->chunk_size;
  work->owner_worker = worker_index;
  if (fan_out) {
    // At most chunk_count - 1 helpers can find work (the owner drains
    // too). TryPush only: when the queue is full the owner simply runs
    // more chunks itself — an owner never blocks on its own fan-out, so
    // every document always makes progress even with zero helpers.
    const size_t helpers =
        std::min(workers_.size() - 1, work->chunk_count - 1);
    for (size_t i = 0; i < helpers; ++i) {
      WorkItem ticket;
      ticket.subtree = work;
      subtree_tickets_.fetch_add(1, std::memory_order_relaxed);
      if (!queue_.TryPush(std::move(ticket))) {
        subtree_tickets_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
    }
    subtree_parallel_docs_.fetch_add(1, std::memory_order_relaxed);
  }
  RunSubtreeChunks(*work, disambiguator, worker_index);
  {
    std::unique_lock<std::mutex> lock(work->mu);
    work->done_cv.wait(lock,
                       [&] { return work->chunks_done == work->chunk_count; });
  }
  // No chunk writes the fields below once the count is complete.
  XSDF_RETURN_IF_ERROR(work->status);
  disambiguator.RecordStageTimes(work->times);
  // Every chunk wrote its targets' slots before its chunks_done
  // increment, so the column is complete; which worker ran what never
  // shows, because each slot belongs to one node.
  result.assignments.Recount();
  return result;
}

void DisambiguationEngine::RunSubtreeChunks(
    SubtreeWork& work, const core::Disambiguator& disambiguator,
    int worker_index) {
  while (true) {
    const size_t chunk =
        work.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= work.chunk_count) return;
    if (worker_index != work.owner_worker) {
      subtree_steals_.fetch_add(1, std::memory_order_relaxed);
    }
    core::Disambiguator::StageTimes times;
    Status status;
    {
      // Container span for the per-node spans below: on a stealing
      // worker's tid there is no enclosing "document" span, so the
      // trace validator accepts "subtree_chunk" as the alternative
      // container. It closes before the chunk counts as done: once the
      // owner sees the last chunk, the batch may finish and the trace
      // be read while a helper would still be recording this span.
      obs::Span chunk_span(
          trace_, "subtree_chunk",
          trace_ != nullptr
              ? StrFormat("chunk %zu/%zu", chunk, work.chunk_count)
              : std::string());
      const size_t begin = chunk * work.chunk_size;
      // Targets decide the same under any identically-configured
      // Disambiguator, so a helper running this chunk yields the exact
      // bytes the owner would have produced.
      status = disambiguator.DisambiguateTargets(
          *work.tree,
          work.targets.subspan(
              begin, std::min(work.chunk_size, work.targets.size() - begin)),
          work.assignments, &times);
    }
    // Count the chunk under the mutex: the owner may destroy the frame
    // the moment it observes the final count, and pairing notify with
    // mu closes the missed-wakeup window against its predicate check.
    std::lock_guard<std::mutex> lock(work.mu);
    work.times.context_ns += times.context_ns;
    work.times.score_ns += times.score_ns;
    work.times.memo_lookups += times.memo_lookups;
    work.times.memo_hits += times.memo_hits;
    if (work.status.ok()) work.status = std::move(status);
    if (++work.chunks_done == work.chunk_count) work.done_cv.notify_all();
  }
}

void DisambiguationEngine::NoteFrontendPeak(uint64_t bytes) {
  uint64_t current = frontend_peak_bytes_.load(std::memory_order_relaxed);
  while (bytes > current &&
         !frontend_peak_bytes_.compare_exchange_weak(
             current, bytes, std::memory_order_relaxed)) {
  }
}

std::vector<DocumentResult> DisambiguationEngine::RunBatch(
    std::vector<DocumentJob> jobs) {
  if (jobs.empty()) return {};
  Batch batch(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].index = i;
    WorkItem item;
    item.job = std::move(jobs[i]);
    item.batch = &batch;
    if (ins_.job_wait_us != nullptr || item.job.rtrace != nullptr) {
      item.enqueue_ns = obs::MonotonicNowNs();
    }
    if (!queue_.Push(std::move(item))) {
      // Queue closed mid-batch (engine shutting down): record the
      // failure locally so the wait below still terminates.
      DocumentResult result;
      result.index = i;
      result.error = "engine shut down before the job ran";
      batch.Complete(std::move(result));
    }
  }
  std::unique_lock<std::mutex> lock(batch.mu);
  batch.done.wait(lock, [&] { return batch.remaining == 0; });
  return std::move(batch.results);
}

std::optional<DocumentResult> DisambiguationEngine::TryRunOne(
    DocumentJob job) {
  Batch batch(1);
  job.index = 0;
  WorkItem item;
  item.job = std::move(job);
  item.batch = &batch;
  if (ins_.job_wait_us != nullptr || item.job.rtrace != nullptr) {
    item.enqueue_ns = obs::MonotonicNowNs();
  }
  if (!queue_.TryPush(std::move(item))) return std::nullopt;
  std::unique_lock<std::mutex> lock(batch.mu);
  batch.done.wait(lock, [&] { return batch.remaining == 0; });
  return std::move(batch.results[0]);
}

EngineStats DisambiguationEngine::stats() const {
  EngineStats stats;
  stats.documents = documents_.load(std::memory_order_relaxed);
  stats.failures = failures_.load(std::memory_order_relaxed);
  stats.nodes = nodes_.load(std::memory_order_relaxed);
  stats.assignments = assignments_.load(std::memory_order_relaxed);
  stats.worker_threads = thread_count();
  stats.subtree_parallel_docs =
      subtree_parallel_docs_.load(std::memory_order_relaxed);
  stats.subtree_steals = subtree_steals_.load(std::memory_order_relaxed);
  stats.frontend_peak_bytes =
      frontend_peak_bytes_.load(std::memory_order_relaxed);
  if (similarity_cache_) stats.similarity_cache = similarity_cache_->GetStats();
  return stats;
}

void DisambiguationEngine::PublishStatsToMetrics() {
  if (options_.metrics == nullptr) return;
  obs::MetricsRegistry* m = options_.metrics;
  EngineStats s = stats();
  auto publish_cache = [m](const char* prefix, const CacheStats& cache) {
    auto set = [&](const char* field, uint64_t value) {
      m->GetGauge(StrFormat("%s.%s", prefix, field))
          ->Set(static_cast<int64_t>(value));
    };
    set("hits", cache.hits);
    set("misses", cache.misses);
    set("evictions", cache.evictions);
    set("read_retries", cache.read_retries);
    set("write_collisions", cache.write_collisions);
    set("entries", cache.entries);
    set("capacity", cache.capacity);
  };
  publish_cache("cache.similarity", s.similarity_cache);
  m->GetGauge("engine.worker_threads")
      ->Set(static_cast<int64_t>(s.worker_threads));
  // Giant-document front end: worst per-document scaffolding footprint
  // and the intra-document work-stealing activity (see DESIGN.md §15).
  m->GetGauge("frontend.arena_peak_bytes")
      ->Set(static_cast<int64_t>(s.frontend_peak_bytes));
  m->GetGauge("engine.subtree_steals")
      ->Set(static_cast<int64_t>(s.subtree_steals));
  m->GetGauge("engine.subtree_parallel_docs")
      ->Set(static_cast<int64_t>(s.subtree_parallel_docs));
  m->GetGauge("engine.subtree_queue_depth")
      ->Set(static_cast<int64_t>(
          subtree_tickets_.load(std::memory_order_relaxed)));
  // Label-space occupancy: how much of the id universe the corpus
  // touched beyond the network's own vocabulary.
  m->GetGauge("label_space.network_size")
      ->Set(static_cast<int64_t>(label_space_->network_size()));
  m->GetGauge("label_space.overflow_size")
      ->Set(static_cast<int64_t>(label_space_->overflow_size()));
  m->GetGauge("label_space.resolved_senses")
      ->Set(static_cast<int64_t>(label_space_->resolved_sense_count()));
}

void DisambiguationEngine::ResetCounters() {
  documents_.store(0, std::memory_order_relaxed);
  failures_.store(0, std::memory_order_relaxed);
  nodes_.store(0, std::memory_order_relaxed);
  assignments_.store(0, std::memory_order_relaxed);
  subtree_parallel_docs_.store(0, std::memory_order_relaxed);
  subtree_steals_.store(0, std::memory_order_relaxed);
  // frontend_peak_bytes_ deliberately survives: it is a lifetime
  // high-water mark, not a rate (see EngineStats).
  if (similarity_cache_) similarity_cache_->ResetCounters();
}

std::string FormatEngineStats(const EngineStats& stats) {
  auto cache_line = [](const CacheStats& cache) {
    if (cache.capacity == 0) return std::string("off");
    std::string line = StrFormat(
        "%.1f%% hit (%llu/%llu), %llu evicted, %zu/%zu entries",
        100.0 * cache.HitRate(),
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.lookups()),
        static_cast<unsigned long long>(cache.evictions),
        cache.entries, cache.capacity);
    if (cache.read_retries != 0 || cache.write_collisions != 0) {
      line += StrFormat(
          ", %llu seq retries, %llu write collisions",
          static_cast<unsigned long long>(cache.read_retries),
          static_cast<unsigned long long>(cache.write_collisions));
    }
    return line;
  };
  return StrFormat(
      "%llu docs (%llu failed), %llu nodes, %llu senses | %d workers | "
      "sim cache: %s",
      static_cast<unsigned long long>(stats.documents),
      static_cast<unsigned long long>(stats.failures),
      static_cast<unsigned long long>(stats.nodes),
      static_cast<unsigned long long>(stats.assignments),
      stats.worker_threads,
      cache_line(stats.similarity_cache).c_str());
}

}  // namespace xsdf::runtime
