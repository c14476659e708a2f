// End-to-end benchmark program for XSDF: builds one workload's inputs from
// a seed, runs them through the library at one worker per hardware
// thread, gates the outputs for correctness, and prints every metric as
// one JSON object on the last line of stdout. See README.md beside this
// file for the workloads, the metric definitions and the layer-to-metric
// predictions.
//
//   xsdf_perfbench --workload corpus_batch|giant_doc
//                  --seed N --seconds S --trace 0|1 --workdir DIR
//                  [--small] [--corrupt]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs the same inputs again with spans recorded around every
// call this program makes into a layer's public functions (nothing inside
// the library is instrumented by it) and prints the per-layer
// metrics, the reconciliation of layer self times against wall x
// workers, and the tracing overhead; on corpus_batch it also serves the
// first documents through an in-process daemon cold-started from a
// snapshot. The spans are written to DIR at exit. --small shrinks every input (the self-test uses it). --corrupt
// flips one output byte before the correctness gate, which must then
// fail the run.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "core/tree_builder.h"
#include "datasets/generator.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/sense_inventory_cache.h"
#include "runtime/similarity_cache.h"
#include "serve/http.h"
#include "serve/server.h"
#include "snapshot/snapshot.h"
#include "wordnet/mini_wordnet.h"

namespace {

namespace rt = xsdf::runtime;
using xsdf::wordnet::SemanticNetwork;

// ---------------------------------------------------------------------
// Fixed workload parameters. They are part of the benchmark definition:
// changing any of them changes what every recorded number means.

/// Generator seeds per corpus: corpus_batch runs 30 x 60 documents.
constexpr int kCorpusSeeds = 30;
/// giant_doc: one deep and one wide document of this many bytes each.
constexpr int kGiantDocs = 2;
constexpr size_t kGiantBytes = 2000000;
/// corpus_batch's traced run also serves its first documents over HTTP.
constexpr size_t kServeDocs = 600;
/// Offered load of the open-loop serve segment, well below the knee of a
/// 4-worker daemon.
constexpr double kOpenLoopRps = 300.0;
/// The latency limit a served request must meet to count toward the SLO.
constexpr double kSloMs = 50.0;
/// Open-loop latencies are invalid when the generator's p99 send lag
/// exceeds this share of the SLO limit: they would describe the client.
constexpr double kMaxLagShare = 0.25;
/// Set-up is repeated this many times per run; the median is reported.
constexpr int kSetupReps = 21;
/// Timed passes per batch run, at least (more while time remains).
constexpr int kMinPasses = 3;
/// A gold-scored run must reach this F or the gate fails it.
constexpr double kMinF = 0.5;

// ---------------------------------------------------------------------
// Clock and statistics.

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsBetween(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Middle value (mean of the two middle values for even sizes).
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Peak resident set of this process so far, in MB (VmHWM).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------
// Spans, kept in memory (one buffer per thread) and written out at exit.
// A span's parent is the innermost open span of the same thread; spans
// of one document or request share its trace id.

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t trace;
  uint32_t tid;
  uint64_t start_ns;
  uint64_t end_ns;
};

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

class Tracer {
 public:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::pair<uint64_t, uint64_t>> open;  ///< (id, trace)
  };

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  ThreadBuffer* Buffer() {
    thread_local ThreadBuffer* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      buffer = buffers_.back().get();
      buffer->tid = static_cast<uint32_t>(buffers_.size());
    }
    return buffer;
  }

  /// Every recorded span; call only after the recording threads joined.
  std::vector<SpanRecord> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    return all;
  }

  /// Count, total and self time per span name. Self time is a span's
  /// duration minus the part its child spans cover.
  std::map<std::string, SpanTotals> Totals() const {
    std::vector<SpanRecord> spans = Spans();
    std::unordered_map<uint64_t, uint64_t> child_ns;
    for (const SpanRecord& span : spans) {
      if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    std::map<std::string, SpanTotals> totals;
    for (const SpanRecord& span : spans) {
      SpanTotals& t = totals[span.name];
      const uint64_t dur = span.end_ns - span.start_ns;
      const uint64_t children = child_ns.count(span.id) ? child_ns[span.id] : 0;
      t.count++;
      t.total_ns += dur;
      t.self_ns += dur > children ? dur - children : 0;
    }
    return totals;
  }

  bool WriteChromeTrace(const std::string& path, const std::string& meta) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::vector<SpanRecord> spans = Spans();
    uint64_t origin = UINT64_MAX;
    for (const SpanRecord& span : spans) origin = std::min(origin, span.start_ns);
    std::fprintf(out, "{\"otherData\": %s,\n\"traceEvents\": [\n", meta.c_str());
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(out,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"trace\":%llu}}%s\n",
                   s.name, s.tid, (s.start_ns - origin) / 1e3,
                   (s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.trace),
                   i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = false;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

Tracer g_tracer;

/// Records one span on the calling thread while in scope; a no-op when
/// tracing is off. `trace` 0 inherits the enclosing span's trace id.
class Span {
 public:
  explicit Span(const char* name, uint64_t trace = 0) {
    if (!g_tracer.enabled()) return;
    buffer_ = g_tracer.Buffer();
    record_.name = name;
    record_.id = g_tracer.NextId();
    record_.parent = buffer_->open.empty() ? 0 : buffer_->open.back().first;
    record_.trace = trace != 0 ? trace
                    : buffer_->open.empty() ? 0
                                            : buffer_->open.back().second;
    record_.tid = buffer_->tid;
    buffer_->open.emplace_back(record_.id, record_.trace);
    record_.start_ns = NowNs();
  }
  ~Span() {
    if (buffer_ == nullptr) return;
    record_.end_ns = NowNs();
    buffer_->open.pop_back();
    buffer_->spans.push_back(record_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadBuffer* buffer_ = nullptr;
  SpanRecord record_{};
};

// ---------------------------------------------------------------------
// Inputs.

struct Doc {
  std::string name;
  std::string xml;
  bool has_gold = false;
  xsdf::eval::GoldMap gold;
};

/// Collects gate failures; any failure suppresses the metrics.
struct Gate {
  std::vector<std::string> failures;
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

bool AddGenerated(const xsdf::datasets::GeneratedDocument& generated,
                  const std::string& prefix, std::vector<Doc>* docs,
                  Gate* gate) {
  Doc doc;
  doc.name = prefix + generated.name;
  doc.xml = generated.xml;
  if (!generated.gold.empty()) {
    auto gold = xsdf::eval::ResolveGold(generated.gold);
    gate->Check(gold.ok(), "gold of " + doc.name + " does not resolve");
    if (!gold.ok()) return false;
    doc.has_gold = true;
    doc.gold = std::move(gold).value();
  }
  docs->push_back(std::move(doc));
  return true;
}

/// The experiments corpus (all ten dataset families) over `seeds`
/// generator seeds derived from the benchmark seed and `salt`.
std::vector<Doc> CorpusDocs(uint64_t seed, int seeds, uint64_t salt,
                            Gate* gate) {
  std::vector<Doc> docs;
  for (int s = 0; s < seeds; ++s) {
    const uint64_t generator_seed = seed * 1000 + salt + static_cast<uint64_t>(s);
    const std::string prefix = "s" + std::to_string(generator_seed) + "/";
    for (const auto* generator : xsdf::datasets::AllDatasets()) {
      for (const auto& generated : generator->Generate(generator_seed)) {
        AddGenerated(generated, prefix, &docs, gate);
      }
    }
  }
  return docs;
}

size_t TotalBytes(const std::vector<Doc>& docs) {
  size_t bytes = 0;
  for (const Doc& doc : docs) bytes += doc.xml.size();
  return bytes;
}

// ---------------------------------------------------------------------
// The layer walk: the engine's per-document pipeline, called layer by
// layer from this program so each call gets its own span. It configures
// the layers the way DisambiguationEngine does (one shared label space,
// similarity cache and sense cache; a Disambiguator and tree-build cache
// per thread) and must produce the engine's bytes for every document.

struct WalkResult {
  std::vector<uint64_t> hashes;  ///< per document; 0 when it failed
  std::vector<std::string> errors;
  xsdf::eval::PrfScores prf;
  size_t gold_docs = 0;
  uint64_t nodes = 0;
  uint64_t targets = 0;
  uint64_t assigned = 0;
  uint64_t candidates = 0;
  uint64_t scaffold_peak_bytes = 0;
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;
  double wall_s = 0.0;
  int threads = 0;
};

WalkResult LayerWalk(const SemanticNetwork& network,
                     const std::vector<Doc>& docs, int threads,
                     uint64_t trace_base) {
  const rt::EngineOptions engine_defaults;
  xsdf::core::DisambiguatorOptions options = engine_defaults.disambiguator;
  xsdf::core::LabelSpace label_space(&network);
  rt::SimilarityCache similarity_cache(
      engine_defaults.similarity_cache_capacity,
      engine_defaults.similarity_cache_shards,
      rt::SimilarityCache::ConfigFingerprint(options.EffectiveMeasureConfig()));
  rt::SenseInventoryCache sense_cache(engine_defaults.sense_cache_capacity,
                                      engine_defaults.sense_cache_shards);
  options.label_space = &label_space;
  options.similarity_cache = &similarity_cache;
  options.sense_inventory = &sense_cache;
  xsdf::xml::ParseOptions parse_options;
  parse_options.limits = engine_defaults.parse_limits;

  WalkResult walk;
  walk.threads = threads;
  walk.hashes.assign(docs.size(), 0);
  std::vector<xsdf::eval::PrfScores> prf(docs.size());
  std::mutex mu;  // guards the WalkResult totals and errors
  std::atomic<size_t> next{0};
  auto worker = [&] {
    xsdf::core::Disambiguator disambiguator(&network, options);
    xsdf::core::TreeBuildCache tree_cache;
    WalkResult local;
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= docs.size()) break;
      const Doc& doc = docs[i];
      Span doc_span("document", trace_base + i + 1);
      xsdf::core::StreamingBuildStats build_stats;
      auto tree = [&] {
        Span span("xml.frontend");
        return xsdf::core::BuildTreeStreaming(
            doc.xml, network, parse_options, options.include_values,
            &label_space, &tree_cache, &build_stats);
      }();
      if (!tree.ok()) {
        local.errors.push_back(doc.name + ": " + tree.status().ToString());
        continue;
      }
      std::vector<xsdf::xml::NodeId> targets;
      {
        Span span("core.select");
        targets = disambiguator.SelectTargets(*tree);
      }
      xsdf::core::SemanticTree semantic;
      {
        Span span("core.disambiguate");
        for (xsdf::xml::NodeId id : targets) {
          auto assignment = disambiguator.DisambiguateNode(*tree, id);
          if (!assignment.ok()) continue;  // senseless labels stay untouched
          local.candidates += static_cast<uint64_t>(assignment->candidate_count);
          semantic.assignments.emplace(id, std::move(assignment).value());
        }
      }
      semantic.tree = std::move(tree).value();
      std::string out;
      {
        Span span("core.serialize");
        out = xsdf::core::SemanticTreeToXml(semantic, network);
      }
      walk.hashes[i] = Fnv1a(out);
      if (doc.has_gold) prf[i] = xsdf::eval::ScoreAgainstGold(semantic, doc.gold);
      local.nodes += semantic.tree.size();
      local.targets += targets.size();
      local.assigned += semantic.assignments.size();
      local.scaffold_peak_bytes =
          std::max<uint64_t>(local.scaffold_peak_bytes,
                             build_stats.scaffold_peak_bytes);
      local.input_bytes += doc.xml.size();
      local.output_bytes += out.size();
    }
    std::lock_guard<std::mutex> lock(mu);
    walk.errors.insert(walk.errors.end(), local.errors.begin(),
                       local.errors.end());
    walk.nodes += local.nodes;
    walk.targets += local.targets;
    walk.assigned += local.assigned;
    walk.candidates += local.candidates;
    walk.scaffold_peak_bytes =
        std::max(walk.scaffold_peak_bytes, local.scaffold_peak_bytes);
    walk.input_bytes += local.input_bytes;
    walk.output_bytes += local.output_bytes;
  };
  const uint64_t start = NowNs();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  walk.wall_s = SecondsBetween(start, NowNs());
  std::vector<xsdf::eval::PrfScores> scored;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (docs[i].has_gold) scored.push_back(prf[i]);
  }
  walk.gold_docs = scored.size();
  walk.prf = xsdf::eval::CombinePrf(scored);
  return walk;
}

// ---------------------------------------------------------------------
// Engine passes.

struct EnginePass {
  double wall_s = 0.0;
  std::vector<rt::DocumentResult> results;
  rt::EngineStats stats;
};

/// One RunBatch over `docs` on a freshly built engine (cold caches, the
/// way one `xsdf batch` invocation runs). Engine construction is outside
/// the timed batch.
EnginePass RunEnginePass(const SemanticNetwork& network,
                         const std::vector<Doc>& docs, int threads,
                         xsdf::obs::MetricsRegistry* metrics) {
  std::vector<rt::DocumentJob> jobs;
  jobs.reserve(docs.size());
  for (const Doc& doc : docs) jobs.push_back({0, doc.name, doc.xml});
  rt::EngineOptions options;
  options.threads = threads;
  options.metrics = metrics;
  EnginePass pass;
  std::optional<rt::DisambiguationEngine> engine;
  {
    Span span("runtime.engine_init");
    engine.emplace(&network, options);
  }
  const uint64_t start = NowNs();
  {
    Span span("runtime.run_batch");
    pass.results = engine->RunBatch(std::move(jobs));
  }
  pass.wall_s = SecondsBetween(start, NowNs());
  {
    Span span("runtime.stats");
    pass.stats = engine->stats();
  }
  return pass;
}

/// Per-document output hashes of a pass; every job must have succeeded.
std::vector<uint64_t> PassHashes(const EnginePass& pass, const char* what,
                                 Gate* gate) {
  std::vector<uint64_t> hashes;
  hashes.reserve(pass.results.size());
  for (const rt::DocumentResult& result : pass.results) {
    gate->Check(result.ok, std::string(what) + ": job " + result.name +
                               " failed: " + result.error);
    hashes.push_back(result.ok ? Fnv1a(result.semantic_xml) : 0);
  }
  return hashes;
}

uint64_t CombinedHash(const std::vector<uint64_t>& hashes) {
  uint64_t combined = 0xcbf29ce484222325ull;
  for (uint64_t h : hashes) combined = SplitMix64(combined ^ h);
  return combined;
}

void CheckSameOutputs(const std::vector<uint64_t>& got,
                      const std::vector<uint64_t>& want,
                      const std::vector<Doc>& docs, const std::string& what,
                      Gate* gate) {
  if (CombinedHash(got) == CombinedHash(want) && got.size() == want.size()) {
    return;
  }
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] != want[i]) {
      gate->Check(false, what + ": output of " + docs[i].name +
                             " differs from the 1-worker engine");
      return;
    }
  }
  gate->Check(false, what + ": output count differs from the 1-worker engine");
}

uint64_t HistogramSum(const xsdf::obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return h.sum;
  }
  return 0;
}

int64_t GaugeValue(const xsdf::obs::MetricsSnapshot& snapshot,
                   const std::string& name) {
  for (const auto& [key, value] : snapshot.gauges) {
    if (key == name) return value;
  }
  return 0;
}

// ---------------------------------------------------------------------
// Metric report.

struct Report {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Set(const std::string& name, double value) { values[name] = value; }
};

using MetricList = std::vector<std::pair<const char*, const char*>>;

/// Every end-to-end metric, in print order, with its unit.
const MetricList& EndToEndMetrics() {
  static const MetricList kMetrics = {
      {"setup_s", "s"},
      {"docs_per_s", "docs/s"},
      {"input_mb_per_s", "MB/s"},
      {"peak_rss_mb", "MB"},
      {"f_measure", "ratio"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"success_frac", "ratio"},
  };
  return kMetrics;
}

/// Every per-layer metric, in print order, with its unit. A workload
/// that does not exercise a layer reports 0 for its metrics.
const MetricList& PerLayerMetrics() {
  static const MetricList kMetrics = {
      {"xml.frontend_us", "us"},
      {"xml.frontend_mb_s", "MB/s"},
      {"xml.nodes", "count"},
      {"xml.scaffold_peak_bytes", "bytes"},
      {"core.select_us", "us"},
      {"core.targets", "count"},
      {"core.targets_per_node", "ratio"},
      {"core.disambiguate_us", "us"},
      {"core.candidates_per_target", "ratio"},
      {"core.assigned_frac", "ratio"},
      {"core.context_us", "us"},
      {"core.score_us", "us"},
      {"core.serialize_us", "us"},
      {"core.serialize_mb_out", "MB"},
      {"sim.lookups", "count"},
      {"sim.hit_rate", "ratio"},
      {"sim.computed", "count"},
      {"sim.read_retries", "count"},
      {"sim.write_collisions", "count"},
      {"sense.lookups", "count"},
      {"sense.hit_rate", "ratio"},
      {"runtime.queue_wait_us.p50", "us"},
      {"runtime.queue_wait_us.p99", "us"},
      {"runtime.run_us.p50", "us"},
      {"runtime.run_us.p99", "us"},
      {"runtime.worker_busy_frac", "ratio"},
      {"runtime.subtree_steals", "count"},
      {"runtime.subtree_parallel_docs", "count"},
      {"serve.connect_us.p50", "us"},
      {"serve.connect_us.p99", "us"},
      {"serve.queue_wait_us.p50", "us"},
      {"serve.queue_wait_us.p99", "us"},
      {"serve.engine_us.p50", "us"},
      {"serve.engine_us.p99", "us"},
      {"serve.http_overhead_us.p50", "us"},
      {"serve.http_overhead_us.p99", "us"},
      {"serve.access_log_joined_frac", "ratio"},
      {"serve.closed_loop_docs_per_s", "docs/s"},
      {"serve.closed_loop_p50_ms", "ms"},
      {"serve.closed_loop_p99_ms", "ms"},
      {"serve.slo_met_frac", "ratio"},
      {"serve.sim_hit_rate", "ratio"},
      {"wordnet.build_ms", "ms"},
      {"snapshot.load_ms", "ms"},
      {"runtime.engine_init_ms", "ms"},
      {"serve.start_ms", "ms"},
      {"loadgen.lag_p99_ms", "ms"},
      {"loadgen.open_loop_valid", "bool"},
      {"loadgen.open_loop_p50_ms", "ms"},
      {"loadgen.open_loop_p99_ms", "ms"},
      {"recon.walk_unattributed_frac", "ratio"},
      {"recon.walk_idle_frac", "ratio"},
      {"recon.engine_unattributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
      {"ops.attempted", "count"},
      {"ops.succeeded", "count"},
      {"ops.failed", "count"},
      {"http.status_200", "count"},
      {"http.status_429", "count"},
      {"http.status_other", "count"},
      {"env.hardware_threads", "count"},
      {"env.simd_level", "level"},
  };
  return kMetrics;
}

void SeedPerLayer(Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) report->Set(name, 0.0);
  report->Set("env.hardware_threads", HardwareThreads());
  report->Set("env.simd_level",
              static_cast<int>(xsdf::simd::ActiveLevel()));
}

/// The walk's per-layer numbers, its reconciliation of layer self times
/// against the document spans and wall x threads, and a printed ledger.
void ReportWalk(const WalkResult& walk, Report* report) {
  const std::map<std::string, SpanTotals> totals = g_tracer.Totals();
  auto self_us = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ns / 1e3;
  };
  const double frontend_us = self_us("xml.frontend");
  report->Set("xml.frontend_us", frontend_us);
  report->Set("xml.frontend_mb_s",
              Ratio(walk.input_bytes / 1e6, frontend_us / 1e6));
  report->Set("xml.nodes", static_cast<double>(walk.nodes));
  report->Set("xml.scaffold_peak_bytes",
              static_cast<double>(walk.scaffold_peak_bytes));
  report->Set("core.select_us", self_us("core.select"));
  report->Set("core.targets", static_cast<double>(walk.targets));
  report->Set("core.targets_per_node",
              Ratio(static_cast<double>(walk.targets), walk.nodes));
  report->Set("core.disambiguate_us", self_us("core.disambiguate"));
  report->Set("core.candidates_per_target",
              Ratio(static_cast<double>(walk.candidates), walk.targets));
  report->Set("core.assigned_frac",
              Ratio(static_cast<double>(walk.assigned), walk.targets));
  report->Set("core.serialize_us", self_us("core.serialize"));
  report->Set("core.serialize_mb_out", walk.output_bytes / 1e6);

  auto it = totals.find("document");
  const double busy_us = it == totals.end() ? 0.0 : it->second.total_ns / 1e3;
  const double unattributed_us = self_us("document");
  const double capacity_us = walk.wall_s * 1e6 * walk.threads;
  report->Set("recon.walk_unattributed_frac", Ratio(unattributed_us, busy_us));
  report->Set("recon.walk_idle_frac", 1.0 - Ratio(busy_us, capacity_us));
  std::printf("# layer walk: %.3f s wall x %d threads = %.0f us; documents "
              "busy %.0f us\n",
              walk.wall_s, walk.threads, capacity_us, busy_us);
  for (const char* name :
       {"xml.frontend", "core.select", "core.disambiguate", "core.serialize"}) {
    std::printf("#   %-18s self %12.0f us  %5.1f%% of busy\n", name,
                self_us(name), 100.0 * Ratio(self_us(name), busy_us));
  }
  std::printf("#   %-18s self %12.0f us  %5.1f%% of busy (unattributed)\n",
              "document", unattributed_us,
              100.0 * Ratio(unattributed_us, busy_us));
  std::printf("#   idle (wall x threads - busy) %.0f us  %5.1f%%\n",
              capacity_us - busy_us,
              100.0 * (1.0 - Ratio(busy_us, capacity_us)));
}

/// Stage split of a 1-worker instrumented engine pass (only the 1-worker
/// path records the context/score histograms) and its reconciliation
/// against the engine's own job run time.
void ReportEngineStages(const xsdf::obs::MetricsSnapshot& snapshot,
                        Report* report) {
  const double context_us = HistogramSum(snapshot, "stage.context_us");
  const double score_us = HistogramSum(snapshot, "stage.score_us");
  report->Set("core.context_us", context_us);
  report->Set("core.score_us", score_us);
  const double run_us = HistogramSum(snapshot, "engine.job_run_us");
  double staged_us = 0.0;
  std::printf("# 1-worker engine stages (registry), job run %.0f us:\n", run_us);
  for (const char* name : {"stage.parse_us", "stage.select_us",
                           "stage.context_us", "stage.score_us",
                           "stage.serialize_us"}) {
    const double us = HistogramSum(snapshot, name);
    staged_us += us;
    std::printf("#   %-20s %12.0f us  %5.1f%%\n", name, us,
                100.0 * Ratio(us, run_us));
  }
  report->Set("recon.engine_unattributed_frac",
              Ratio(run_us - staged_us, run_us));
  std::printf("#   %-20s %12.0f us  %5.1f%%\n", "unattributed",
              run_us - staged_us, 100.0 * Ratio(run_us - staged_us, run_us));
}

void ReportCaches(const rt::CacheStats& sim, const rt::CacheStats& sense,
                  double passes, Report* report) {
  report->Set("sim.lookups", sim.lookups() / passes);
  report->Set("sim.hit_rate", sim.HitRate());
  report->Set("sim.computed", sim.misses / passes);
  report->Set("sim.read_retries", sim.read_retries / passes);
  report->Set("sim.write_collisions", sim.write_collisions / passes);
  report->Set("sense.lookups", sense.lookups() / passes);
  report->Set("sense.hit_rate", sense.HitRate());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  bool small = false;
  bool corrupt = false;
};

std::string SpanFilePath(const Args& args) {
  return (std::filesystem::path(args.workdir) /
          ("spans_" + args.workload + "_seed" + std::to_string(args.seed) +
           ".json"))
      .string();
}

// ---------------------------------------------------------------------
// corpus_batch and giant_doc.

void MeasureServe(const Args& args, const SemanticNetwork& network,
                  const std::vector<Doc>& docs,
                  const std::vector<std::string>& expected, double seconds,
                  Report* report, Gate* gate);

int RunBatchWorkload(const Args& args, Report* report, Gate* gate) {
  const int threads = HardwareThreads();
  const bool giant = args.workload == "giant_doc";
  std::vector<Doc> docs;
  if (giant) {
    for (const auto& generated : xsdf::datasets::GiantDocuments(
             kGiantDocs, args.small ? kGiantBytes / 20 : kGiantBytes,
             args.seed)) {
      AddGenerated(generated, "", &docs, gate);
    }
  } else {
    docs = CorpusDocs(args.seed, args.small ? 2 : kCorpusSeeds, 0, gate);
  }
  const double input_mb = TotalBytes(docs) / 1e6;
  std::printf("# %s: %zu documents, %.2f MB, %d workers\n",
              args.workload.c_str(), docs.size(), input_mb, threads);

  // Set-up: lexicon build plus engine construction, repeated.
  std::optional<xsdf::Result<SemanticNetwork>> network;
  std::vector<double> setup_s, build_ms, init_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const uint64_t start = NowNs();
    std::optional<xsdf::Result<SemanticNetwork>> built;
    {
      Span span("wordnet.build");
      built.emplace(xsdf::wordnet::BuildMiniWordNet());
    }
    const uint64_t built_ns = NowNs();
    if (!built->ok()) {
      std::fprintf(stderr, "lexicon: %s\n", built->status().ToString().c_str());
      return 1;
    }
    {
      rt::EngineOptions options;
      options.threads = threads;
      Span span("runtime.engine_init");
      rt::DisambiguationEngine engine(&**built, options);
    }
    const uint64_t end = NowNs();
    setup_s.push_back(SecondsBetween(start, end));
    build_ms.push_back(SecondsBetween(start, built_ns) * 1e3);
    init_ms.push_back(SecondsBetween(built_ns, end) * 1e3);
    if (!network) network = std::move(built);
  }
  const SemanticNetwork& net = **network;

  // Timed passes: untraced, then (traced runs only) instrumented passes
  // and, on the corpus, the serve segment, sharing the time equally.
  const double budget = args.seconds / (!args.trace ? 1 : giant ? 2 : 3);
  std::vector<double> docs_per_s, mb_per_s, pass_ms;
  std::vector<std::vector<uint64_t>> pass_hashes;
  const uint64_t timed_start = NowNs();
  while (pass_ms.size() < kMinPasses ||
         SecondsBetween(timed_start, NowNs()) < budget) {
    EnginePass pass = RunEnginePass(net, docs, threads, nullptr);
    if (args.corrupt && !pass.results[0].semantic_xml.empty()) {
      pass.results[0].semantic_xml[0] ^= 1;
    }
    pass_hashes.push_back(PassHashes(pass, "timed pass", gate));
    docs_per_s.push_back(docs.size() / pass.wall_s);
    mb_per_s.push_back(input_mb / pass.wall_s);
    pass_ms.push_back(pass.wall_s * 1e3);
  }
  const double peak_rss_mb = PeakRssMb();
  report->attempted = docs.size() * pass_ms.size();

  // Per-layer extras of a traced run: instrumented 4-worker passes.
  std::vector<double> traced_docs_per_s, queue_wait_us, run_us;
  rt::CacheStats sim_total, sense_total;
  double busy_frac_sum = 0.0, steals = 0.0, parallel_docs = 0.0;
  if (args.trace) {
    const uint64_t traced_start = NowNs();
    while (traced_docs_per_s.size() < kMinPasses ||
           SecondsBetween(traced_start, NowNs()) < budget) {
      xsdf::obs::MetricsRegistry registry;
      EnginePass pass = RunEnginePass(net, docs, threads, &registry);
      pass_hashes.push_back(PassHashes(pass, "instrumented pass", gate));
      traced_docs_per_s.push_back(docs.size() / pass.wall_s);
      double run_sum_us = 0.0;
      for (const rt::DocumentResult& result : pass.results) {
        queue_wait_us.push_back(static_cast<double>(result.queue_wait_us));
        run_us.push_back(static_cast<double>(result.run_us));
        run_sum_us += static_cast<double>(result.run_us);
      }
      busy_frac_sum += Ratio(run_sum_us, pass.wall_s * 1e6 * threads);
      const rt::EngineStats& s = pass.stats;
      sim_total.hits += s.similarity_cache.hits;
      sim_total.misses += s.similarity_cache.misses;
      sim_total.read_retries += s.similarity_cache.read_retries;
      sim_total.write_collisions += s.similarity_cache.write_collisions;
      sense_total.hits += s.sense_cache.hits;
      sense_total.misses += s.sense_cache.misses;
      steals += static_cast<double>(s.subtree_steals);
      parallel_docs += static_cast<double>(s.subtree_parallel_docs);
    }
    report->attempted += docs.size() * traced_docs_per_s.size();
  }

  // Reference: one 1-worker engine pass (instrumented in traced runs,
  // which is where the context/score stage split comes from).
  xsdf::obs::MetricsRegistry reference_registry;
  EnginePass reference = RunEnginePass(
      net, docs, 1, args.trace ? &reference_registry : nullptr);
  const std::vector<uint64_t> reference_hashes =
      PassHashes(reference, "1-worker reference", gate);
  for (const auto& hashes : pass_hashes) {
    CheckSameOutputs(hashes, reference_hashes, docs, "4-worker pass", gate);
  }
  std::printf("# output hash %016llx (%zu passes match the 1-worker engine)\n",
              static_cast<unsigned long long>(CombinedHash(reference_hashes)),
              pass_hashes.size());

  // Quality: F against the generator gold. The corpus is scored whole;
  // giant documents carry no gold, so giant_doc scores the two gold
  // documents of the paper's Figure 1 through the same layers.
  std::optional<WalkResult> walk;
  if (!giant || args.trace) {
    walk = LayerWalk(net, docs, threads, 0);
    for (const std::string& error : walk->errors) gate->Check(false, error);
    CheckSameOutputs(walk->hashes, reference_hashes, docs, "layer walk", gate);
    // Ledger first: the span totals must not include the probe below.
    if (args.trace) ReportWalk(*walk, report);
  }
  xsdf::eval::PrfScores prf;
  if (giant) {
    std::vector<Doc> probe;
    for (const auto& generated : xsdf::datasets::Figure1Documents()) {
      AddGenerated(generated, "figure1/", &probe, gate);
    }
    prf = LayerWalk(net, probe, 1, docs.size()).prf;
  } else {
    prf = walk->prf;
  }
  gate->Check(prf.f_value >= kMinF,
              "F " + std::to_string(prf.f_value) + " below the floor");

  std::sort(pass_ms.begin(), pass_ms.end());
  report->Set("setup_s", Median(setup_s));
  report->Set("docs_per_s", Median(docs_per_s));
  report->Set("input_mb_per_s", Median(mb_per_s));
  report->Set("peak_rss_mb", peak_rss_mb);
  report->Set("f_measure", prf.f_value);
  report->Set("latency_p50_ms", Median(pass_ms));
  report->Set("latency_p99_ms", Percentile(pass_ms, 0.99));
  report->Set("success_frac", 1.0);
  std::printf("# %zu timed passes: docs/s median %.1f, pass ms median %.1f "
              "max %.1f; F %.4f over %d gold nodes\n",
              pass_ms.size(), Median(docs_per_s), Median(pass_ms),
              pass_ms.back(), prf.f_value, prf.gold_total);

  if (args.trace) {
    ReportEngineStages(reference_registry.Snapshot(), report);
    const double passes = static_cast<double>(traced_docs_per_s.size());
    ReportCaches(sim_total, sense_total, passes, report);
    report->Set("runtime.queue_wait_us.p50", Percentile(queue_wait_us, 0.5));
    report->Set("runtime.queue_wait_us.p99", Percentile(queue_wait_us, 0.99));
    report->Set("runtime.run_us.p50", Percentile(run_us, 0.5));
    report->Set("runtime.run_us.p99", Percentile(run_us, 0.99));
    report->Set("runtime.worker_busy_frac", busy_frac_sum / passes);
    report->Set("runtime.subtree_steals", steals / passes);
    report->Set("runtime.subtree_parallel_docs", parallel_docs / passes);
    report->Set("wordnet.build_ms", Median(build_ms));
    report->Set("runtime.engine_init_ms", Median(init_ms));
    const double overhead =
        1.0 - Ratio(Median(traced_docs_per_s), Median(docs_per_s));
    report->Set("trace.overhead_frac", overhead);
    std::printf("# tracing overhead: %.1f docs/s untraced, %.1f docs/s "
                "instrumented (%.2f%%)\n",
                Median(docs_per_s), Median(traced_docs_per_s), 100 * overhead);
    if (!giant) {
      const size_t n = std::min(kServeDocs, docs.size());
      const std::vector<Doc> served(docs.begin(), docs.begin() + n);
      std::vector<std::string> expected;
      for (size_t i = 0; i < n; ++i) {
        expected.push_back(reference.results[i].semantic_xml);
      }
      MeasureServe(args, net, served, expected, budget, report, gate);
    }
    report->Set("ops.attempted", static_cast<double>(report->attempted));
    report->Set("ops.succeeded",
                static_cast<double>(report->attempted - report->failed));
    report->Set("ops.failed", static_cast<double>(report->failed));
  }
  return 0;
}

// ---------------------------------------------------------------------
// The serve layer (measured in corpus_batch's traced run).

/// A resident server running its accept loop on a thread; shut down and
/// joined on destruction.
class RunningServer {
 public:
  RunningServer(std::unique_ptr<xsdf::serve::Server> server)
      : server_(std::move(server)),
        thread_([this] { server_->Run(); }) {}
  ~RunningServer() {
    server_->RequestShutdown();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  int port() const { return server_->port(); }

 private:
  std::unique_ptr<xsdf::serve::Server> server_;
  std::thread thread_;
};

struct ServeSetup {
  std::unique_ptr<xsdf::serve::Server> server;
  double load_ms = 0.0;
  double start_ms = 0.0;
};

/// Cold start from the snapshot: load, install (engine construction),
/// bind.
std::optional<ServeSetup> StartServer(const std::string& snapshot_path,
                                      const std::string& access_log,
                                      xsdf::obs::MetricsRegistry* metrics) {
  ServeSetup setup;
  const uint64_t start = NowNs();
  auto network = [&] {
    Span span("snapshot.load");
    return xsdf::snapshot::LoadNetworkSnapshot(snapshot_path);
  }();
  const uint64_t loaded = NowNs();
  if (!network.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", network.status().ToString().c_str());
    return std::nullopt;
  }
  xsdf::serve::ServeOptions options;
  options.port = 0;
  options.enable_admin = false;
  options.engine.threads = HardwareThreads();
  options.access_log_path = access_log;
  options.metrics = metrics;
  setup.server = std::make_unique<xsdf::serve::Server>(options);
  {
    Span span("runtime.engine_init");
    xsdf::Status installed =
        setup.server->InstallLexicon(std::move(network).value(), "bench");
    if (!installed.ok()) {
      std::fprintf(stderr, "install: %s\n", installed.ToString().c_str());
      return std::nullopt;
    }
  }
  const uint64_t installed_ns = NowNs();
  {
    Span span("serve.start");
    xsdf::Status started = setup.server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
      return std::nullopt;
    }
  }
  const uint64_t end = NowNs();
  setup.load_ms = SecondsBetween(start, loaded) * 1e3;
  setup.start_ms = SecondsBetween(installed_ns, end) * 1e3;
  return setup;
}

struct Outcome {
  uint64_t id = 0;
  uint64_t scheduled_ns = 0;  ///< due time (open loop) or send time
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
  int status = 0;  ///< 0 = transport error
  bool body_ok = false;
};

struct LoadResult {
  std::vector<Outcome> outcomes;  ///< in scheduled order
  uint64_t start_ns = 0;
};

std::string IdHex(uint64_t id) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(id));
  return hex;
}

xsdf::Result<xsdf::serve::ClientResponse> Post(int port, const Doc& doc,
                                               uint64_t id) {
  return xsdf::serve::HttpCall(
      "127.0.0.1", port, "POST", "/disambiguate",
      {{"X-Xsdf-Doc-Name", doc.name}, {"X-Xsdf-Request-Id", IdHex(id)}},
      doc.xml, /*timeout_ms=*/30000);
}

/// Sends every document once from `senders` closed-loop threads (cache
/// warm-up) and checks each answer against the batch output.
void WarmUp(int port, const std::vector<Doc>& docs,
            const std::vector<std::string>& expected, int senders,
            Gate* gate) {
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::vector<std::thread> pool;
  for (int t = 0; t < senders; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= docs.size()) return;
        auto response = Post(port, docs[i], SplitMix64(i) | (1ull << 63));
        const bool ok = response.ok() && response->status == 200 &&
                        response->body == expected[i];
        if (!ok) {
          std::lock_guard<std::mutex> lock(mu);
          gate->Check(false, "warm-up answer for " + docs[i].name +
                                 " differs from the batch output");
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

/// POSTs the documents round-robin from `senders` threads for `seconds`,
/// each sender with one request in flight. With `rps` 0 the loop is
/// closed: a sender posts its next document as soon as its answer
/// arrives. With `rps` > 0 arrivals follow an open-loop Poisson
/// schedule: rate x duration arrivals at sorted uniform times (a Poisson
/// process conditioned on its count, so every seed offers the same
/// load), each timed from its scheduled send time.
LoadResult RunLoad(int port, const std::vector<Doc>& docs,
                   const std::vector<std::string>& expected, double seconds,
                   double rps, uint64_t seed, int senders) {
  std::vector<uint64_t> offsets;
  if (rps > 0) {
    offsets.resize(std::max<size_t>(
        1, static_cast<size_t>(std::llround(rps * seconds))));
    uint64_t state = SplitMix64(seed ^ 0x5e12e5e12eull);
    for (uint64_t& offset : offsets) {
      state = SplitMix64(state);
      offset = static_cast<uint64_t>((state >> 11) *
                                     (seconds * 1e9 / 9007199254740992.0));
    }
    std::sort(offsets.begin(), offsets.end());
  }
  LoadResult load;
  load.start_ns = NowNs() + 20000000;  // 20 ms for the senders to start
  const uint64_t deadline_ns =
      load.start_ns + static_cast<uint64_t>(seconds * 1e9);
  std::atomic<size_t> next{0};
  std::mutex mu;  // guards load.outcomes
  std::vector<std::thread> pool;
  for (int t = 0; t < senders; ++t) {
    pool.emplace_back([&] {
      std::vector<Outcome> mine;
      for (;;) {
        const size_t i = next.fetch_add(1);
        Outcome o;
        o.id = SplitMix64(seed * 0x100000001b3ull + i) | (1ull << 63);
        if (rps > 0) {
          if (i >= offsets.size()) break;
          o.scheduled_ns = load.start_ns + offsets[i];
        } else {
          o.scheduled_ns = std::max(NowNs(), load.start_ns);
          if (o.scheduled_ns >= deadline_ns) break;
        }
        const uint64_t now = NowNs();
        if (now < o.scheduled_ns) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(o.scheduled_ns - now));
        }
        const Doc& doc = docs[i % docs.size()];
        o.sent_ns = NowNs();
        auto response = [&] {
          Span span("serve.http_call", o.id);
          return Post(port, doc, o.id);
        }();
        o.done_ns = NowNs();
        if (response.ok()) {
          o.status = response->status;
          const std::string& body = response->body;
          auto echoed = response->headers.find("x-xsdf-request-id");
          o.body_ok = body == expected[i % docs.size()] &&
                      echoed != response->headers.end() &&
                      echoed->second == IdHex(o.id);
        }
        mine.push_back(o);
      }
      std::lock_guard<std::mutex> lock(mu);
      load.outcomes.insert(load.outcomes.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : pool) t.join();
  std::sort(load.outcomes.begin(), load.outcomes.end(),
            [](const Outcome& a, const Outcome& b) {
              return a.scheduled_ns < b.scheduled_ns;
            });
  return load;
}

struct LoadSummary {
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double lag_p99_ms = 0.0;
  double docs_per_s = 0.0;
  double slo_met_frac = 0.0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  std::map<int, uint64_t> by_status;
};

LoadSummary Summarize(const LoadResult& load, const char* what, Gate* gate) {
  LoadSummary s;
  std::vector<double> latency_ms, lag_ms;
  uint64_t within = 0, last_done = load.start_ns;
  for (const Outcome& o : load.outcomes) {
    s.by_status[o.status]++;
    lag_ms.push_back(o.sent_ns > o.scheduled_ns
                         ? (o.sent_ns - o.scheduled_ns) / 1e6 : 0.0);
    const bool ok = o.status == 200;
    if (ok) {
      gate->Check(o.body_ok, "a served answer differs from the batch output "
                             "or lost its request id");
    }
    // A failed or refused request misses every latency limit.
    const double ms = ok ? (o.done_ns - o.scheduled_ns) / 1e6 : INFINITY;
    latency_ms.push_back(ms);
    if (ok) {
      s.ok++;
      last_done = std::max(last_done, o.done_ns);
      if (ms <= kSloMs) within++;
    } else {
      s.failed++;
    }
  }
  const double n = std::max<double>(1.0, load.outcomes.size());
  const double wall_s = SecondsBetween(load.start_ns, last_done);
  s.latency_p50_ms = Percentile(latency_ms, 0.50);
  s.latency_p99_ms = Percentile(latency_ms, 0.99);
  s.lag_p99_ms = Percentile(lag_ms, 0.99);
  s.docs_per_s = Ratio(static_cast<double>(s.ok), wall_s);
  s.slo_met_frac = within / n;
  std::printf("# %s: %llu/%zu answered 200 in %.2f s (%.1f docs/s); latency "
              "p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f ms; lag p99 %.3f ms\n",
              what, static_cast<unsigned long long>(s.ok),
              load.outcomes.size(), wall_s, s.docs_per_s, s.latency_p50_ms,
              Percentile(latency_ms, 0.90), s.latency_p99_ms,
              Percentile(latency_ms, 0.999), s.lag_p99_ms);
  for (const auto& [status, count] : s.by_status) {
    std::printf("#   http %d: %llu\n", status,
                static_cast<unsigned long long>(count));
  }
  return s;
}

/// The number after `"key":` in a JSON line (0 when absent).
double JsonNumber(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  return pos == std::string::npos
             ? 0.0 : std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

std::string JsonString(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return {};
  pos += needle.size();
  size_t end = line.find('"', pos);
  return end == std::string::npos ? std::string() : line.substr(pos, end - pos);
}

/// Joins the access log to the client-side outcomes by request id and
/// splits each request's client time into connect (client time the
/// server's own clock does not see: connect, accept, request read),
/// admission-queue wait, engine time and the rest of HTTP.
void ReportServeLayers(const std::string& access_log, const LoadResult& load,
                       Report* report) {
  struct Line {
    double total_us, queue_us, engine_us;
  };
  std::unordered_map<std::string, Line> by_id;
  std::ifstream in(access_log);
  std::string line;
  while (std::getline(in, line)) {
    if (JsonString(line, "path") != "/disambiguate") continue;
    by_id[JsonString(line, "id")] = {JsonNumber(line, "total_us"),
                                     JsonNumber(line, "queue_us"),
                                     JsonNumber(line, "engine_us")};
  }
  std::vector<double> connect, queue, engine, overhead;
  for (const Outcome& o : load.outcomes) {
    auto it = by_id.find(IdHex(o.id));
    if (it == by_id.end() || o.status == 0) continue;
    const double client_us = (o.done_ns - o.sent_ns) / 1e3;
    connect.push_back(std::max(0.0, client_us - it->second.total_us));
    queue.push_back(it->second.queue_us);
    engine.push_back(it->second.engine_us);
    overhead.push_back(
        std::max(0.0, client_us - it->second.queue_us - it->second.engine_us));
  }
  report->Set("serve.access_log_joined_frac",
              Ratio(static_cast<double>(connect.size()), load.outcomes.size()));
  const std::vector<std::pair<std::string, const std::vector<double>*>> parts =
      {{"serve.connect_us", &connect},
       {"serve.queue_wait_us", &queue},
       {"serve.engine_us", &engine},
       {"serve.http_overhead_us", &overhead}};
  std::printf("# serve ledger, open loop (p50 / p99 us over %zu joined "
              "requests):\n", connect.size());
  for (const auto& [name, values] : parts) {
    report->Set(name + ".p50", Percentile(*values, 0.5));
    report->Set(name + ".p99", Percentile(*values, 0.99));
    std::printf("#   %-24s %10.0f %10.0f\n", name.c_str(),
                Percentile(*values, 0.5), Percentile(*values, 0.99));
  }
}

/// The serve layer, measured in corpus_batch's traced run over `docs`:
/// repeated cold starts from a snapshot of `network`, then one server
/// with the access log and a metrics registry attached, warmed by one
/// pass over the documents and driven first by closed-loop clients and
/// then by an open-loop Poisson segment, whose access-log join gives the
/// serve ledger. Every 200 body must equal `expected` byte for byte.
void MeasureServe(const Args& args, const SemanticNetwork& network,
                  const std::vector<Doc>& docs,
                  const std::vector<std::string>& expected, double seconds,
                  Report* report, Gate* gate) {
  const int senders = HardwareThreads();
  const std::filesystem::path work(args.workdir);
  const std::string snapshot_path = (work / "lexicon.snap").string();
  xsdf::Status written =
      xsdf::snapshot::WriteNetworkSnapshotFile(network, snapshot_path);
  if (!written.ok()) {
    gate->Check(false, "snapshot: " + written.ToString());
    return;
  }
  std::vector<double> load_ms, start_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::optional<ServeSetup> setup = StartServer(snapshot_path, "", nullptr);
    if (!setup) {
      gate->Check(false, "server cold start failed");
      return;
    }
    load_ms.push_back(setup->load_ms);
    start_ms.push_back(setup->start_ms);
  }
  report->Set("snapshot.load_ms", Median(load_ms));
  report->Set("serve.start_ms", Median(start_ms));

  const std::string access_log =
      (work / ("access_seed" + std::to_string(args.seed) + ".jsonl")).string();
  std::filesystem::remove(access_log);
  xsdf::obs::MetricsRegistry registry;
  LoadResult closed_load, open_load;
  xsdf::obs::MetricsSnapshot before, after;
  {
    std::optional<ServeSetup> setup =
        StartServer(snapshot_path, access_log, &registry);
    if (!setup) {
      gate->Check(false, "server cold start failed");
      return;
    }
    RunningServer server(std::move(setup->server));
    WarmUp(server.port(), docs, expected, senders, gate);
    auto publish = [&] {
      Span span("serve.metrics");
      gate->Check(xsdf::serve::HttpCall("127.0.0.1", server.port(), "GET",
                                        "/metrics", {}, "", 30000)
                      .ok(),
                  "GET /metrics failed");
      return registry.Snapshot();
    };
    before = publish();
    closed_load = RunLoad(server.port(), docs, expected, seconds / 2, 0.0,
                          args.seed, senders);
    open_load = RunLoad(server.port(), docs, expected, seconds / 2,
                        kOpenLoopRps, args.seed + 1, senders);
    after = publish();
  }  // the server drains and flushes its access log here
  const LoadSummary closed = Summarize(closed_load, "serve, closed loop", gate);
  const LoadSummary open = Summarize(open_load, "serve, open loop", gate);
  report->Set("serve.closed_loop_docs_per_s", closed.docs_per_s);
  report->Set("serve.closed_loop_p50_ms", closed.latency_p50_ms);
  report->Set("serve.closed_loop_p99_ms", closed.latency_p99_ms);
  report->Set("serve.slo_met_frac", closed.slo_met_frac);
  ReportServeLayers(access_log, open_load, report);
  auto delta = [&](const char* name) {
    return static_cast<double>(GaugeValue(after, name) - GaugeValue(before, name));
  };
  const double sim_hits = delta("cache.similarity.hits");
  report->Set("serve.sim_hit_rate",
              Ratio(sim_hits, sim_hits + delta("cache.similarity.misses")));

  // The open-loop latencies count only when the generator kept to its
  // schedule; otherwise they would describe the client.
  const bool valid = open.lag_p99_ms <= kMaxLagShare * kSloMs;
  report->Set("loadgen.lag_p99_ms", open.lag_p99_ms);
  report->Set("loadgen.open_loop_valid", valid ? 1.0 : 0.0);
  report->Set("loadgen.open_loop_p50_ms", valid ? open.latency_p50_ms : 0.0);
  report->Set("loadgen.open_loop_p99_ms", valid ? open.latency_p99_ms : 0.0);
  if (!valid) {
    std::printf("# open loop INVALID: generator lag p99 %.3f ms exceeds %.0f%% "
                "of the %.0f ms limit; its latencies are not reported\n",
                open.lag_p99_ms, 100 * kMaxLagShare, kSloMs);
  }
  std::map<int, uint64_t> statuses;
  for (const LoadSummary* summary : {&closed, &open}) {
    report->attempted += summary->ok + summary->failed;
    report->failed += summary->failed;
    for (const auto& [status, count] : summary->by_status) {
      statuses[status] += count;
    }
  }
  double other = 0.0;
  for (const auto& [status, count] : statuses) {
    if (status != 200 && status != 429) other += static_cast<double>(count);
  }
  report->Set("http.status_200", static_cast<double>(statuses[200]));
  report->Set("http.status_429", static_cast<double>(statuses[429]));
  report->Set("http.status_other", other);
}

// ---------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--small") {
      args->small = true;
    } else if (arg == "--corrupt") {
      args->corrupt = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--workdir") {
      const char* v = value();
      if (v == nullptr) return false;
      if (arg == "--workload") args->workload = v;
      if (arg == "--seed") args->seed = std::strtoull(v, nullptr, 10);
      if (arg == "--seconds") args->seconds = std::strtod(v, nullptr);
      if (arg == "--trace") args->trace = std::string(v) == "1";
      if (arg == "--workdir") args->workdir = v;
    } else {
      return false;
    }
  }
  return (args->workload == "corpus_batch" || args->workload == "giant_doc") &&
         args->seconds > 0 && !args->workdir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xsdf_perfbench --workload corpus_batch|giant_doc "
                 "--seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--small] [--corrupt]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (args.trace) g_tracer.Enable();
  const char* simd = xsdf::simd::LevelName(xsdf::simd::ActiveLevel());
  std::printf("# env hardware_threads=%d simd_dispatch=%s workload=%s seed=%llu "
              "seconds=%g trace=%d\n",
              HardwareThreads(), simd, args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  Report report;
  Gate gate;
  if (args.trace) SeedPerLayer(&report);
  const int code = RunBatchWorkload(args, &report, &gate);
  if (code != 0) return code;
  if (!gate.failures.empty()) {
    for (const std::string& failure : gate.failures) {
      std::fprintf(stderr, "correctness gate: %s\n", failure.c_str());
    }
    std::fprintf(stderr, "correctness gate failed (%zu findings)\n",
                 gate.failures.size());
    return 1;
  }
  if (args.trace) {
    report.Set("trace.spans", static_cast<double>(g_tracer.Spans().size()));
    char meta[256];
    std::snprintf(meta, sizeof(meta),
                  "{\"workload\":\"%s\",\"seed\":%llu,\"hardware_threads\":%d,"
                  "\"simd_dispatch\":\"%s\"}",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed), HardwareThreads(),
                  simd);
    const std::string path = SpanFilePath(args);
    if (!g_tracer.WriteChromeTrace(path, meta)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# spans written to %s\n", path.c_str());
  }
  const MetricList& printed = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const auto& [name, unit] : printed) {
    auto it = report.values.find(name);
    if (it == report.values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "metric %s was not measured\n", name);
      return 1;
    }
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, it->second, unit);
    metrics += entry;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
