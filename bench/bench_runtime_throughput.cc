// Throughput benchmark for the concurrent batch-disambiguation
// runtime: docs/sec over the generated 10-family corpus at 1/2/4/8
// worker threads, with the shared similarity (pair) cache on and off,
// plus a warm (second-pass) measurement at the peak thread count and
// an instrumented-vs-uninstrumented comparison (metrics registry +
// trace session attached) that quantifies observability overhead.
// Results go to stdout as a table and to a JSON file (argv[1],
// default BENCH_runtime.json) so later PRs have a perf trajectory.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "datasets/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "wordnet/mini_wordnet.h"

namespace {

using xsdf::runtime::DisambiguationEngine;
using xsdf::runtime::DocumentJob;
using xsdf::runtime::EngineOptions;
using xsdf::runtime::EngineStats;

std::vector<DocumentJob> BuildCorpus(int replicas) {
  std::vector<DocumentJob> jobs;
  for (int r = 0; r < replicas; ++r) {
    for (const auto* generator : xsdf::datasets::AllDatasets()) {
      for (const auto& doc :
           generator->Generate(/*seed=*/100 + static_cast<uint64_t>(r))) {
        jobs.push_back({0, doc.name, doc.xml});
      }
    }
  }
  return jobs;
}

struct RunResult {
  int threads = 0;
  bool cache = false;
  bool warm = false;
  double seconds = 0.0;
  double docs_per_sec = 0.0;
  double sim_hit_rate = 0.0;
  uint64_t assignments = 0;
};

RunResult Measure(const xsdf::wordnet::SemanticNetwork& network,
                  const std::vector<DocumentJob>& jobs, int threads,
                  bool cache, bool warm,
                  xsdf::obs::MetricsRegistry* metrics = nullptr,
                  xsdf::obs::TraceSession* trace = nullptr) {
  EngineOptions options;
  options.threads = threads;
  options.enable_similarity_cache = cache;
  options.metrics = metrics;
  options.trace = trace;
  DisambiguationEngine engine(&network, options);
  if (warm) {
    engine.RunBatch(jobs);  // prime the caches; not measured
    engine.ResetCounters();
  }
  auto start = std::chrono::steady_clock::now();
  engine.RunBatch(jobs);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EngineStats stats = engine.stats();
  RunResult result;
  result.threads = threads;
  result.cache = cache;
  result.warm = warm;
  result.seconds = seconds;
  result.docs_per_sec =
      seconds > 0 ? static_cast<double>(jobs.size()) / seconds : 0.0;
  result.sim_hit_rate = stats.similarity_cache.HitRate();
  result.assignments = stats.assignments;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_runtime.json";
  auto network_result = xsdf::wordnet::BuildMiniWordNet();
  if (!network_result.ok()) {
    std::fprintf(stderr, "%s\n",
                 network_result.status().ToString().c_str());
    return 1;
  }
  const auto& network = *network_result;
  std::vector<DocumentJob> jobs = BuildCorpus(/*replicas=*/2);
  // Thread speedups are bounded by the machine; record the core count
  // so baselines from different hardware are not compared naively.
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("corpus: %zu documents, %u hardware threads\n", jobs.size(),
              cores);
  std::printf("%-8s %-6s %-5s %10s %12s %10s\n", "threads", "cache",
              "warm", "seconds", "docs/sec", "sim hit%");

  std::vector<RunResult> results;
  uint64_t reference_assignments = 0;
  for (bool cache : {true, false}) {
    for (int threads : {1, 2, 4, 8}) {
      RunResult r = Measure(network, jobs, threads, cache, /*warm=*/false);
      std::printf("%-8d %-6s %-5s %10.3f %12.1f %10.1f\n", r.threads,
                  r.cache ? "on" : "off", "no", r.seconds, r.docs_per_sec,
                  100.0 * r.sim_hit_rate);
      // Every configuration must do the same semantic work — a cheap
      // cross-config determinism check.
      if (reference_assignments == 0) {
        reference_assignments = r.assignments;
      } else if (r.assignments != reference_assignments) {
        std::fprintf(stderr,
                     "determinism violation: %llu assignments vs %llu\n",
                     static_cast<unsigned long long>(r.assignments),
                     static_cast<unsigned long long>(
                         reference_assignments));
        return 1;
      }
      results.push_back(r);
    }
  }
  RunResult warm = Measure(network, jobs, 4, /*cache=*/true, /*warm=*/true);
  std::printf("%-8d %-6s %-5s %10.3f %12.1f %10.1f\n", warm.threads, "on",
              "yes", warm.seconds, warm.docs_per_sec,
              100.0 * warm.sim_hit_rate);
  results.push_back(warm);

  double base = 0.0, four = 0.0;
  for (const RunResult& r : results) {
    if (r.cache && !r.warm && r.threads == 1) base = r.docs_per_sec;
    if (r.cache && !r.warm && r.threads == 4) four = r.docs_per_sec;
  }
  double speedup = base > 0 ? four / base : 0.0;
  std::printf("speedup 4 threads vs 1 (cache on): %.2fx\n", speedup);

  // Observability overhead: the same 4-thread cached run with both
  // sinks attached. Back-to-back single runs are noisy at this corpus
  // size, so each side takes the best of three.
  double plain_best = 0.0;
  double instrumented_best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    RunResult plain = Measure(network, jobs, 4, /*cache=*/true,
                              /*warm=*/false);
    if (plain.docs_per_sec > plain_best) plain_best = plain.docs_per_sec;
    xsdf::obs::MetricsRegistry metrics;
    xsdf::obs::TraceSession trace;
    RunResult instrumented = Measure(network, jobs, 4, /*cache=*/true,
                                     /*warm=*/false, &metrics, &trace);
    if (instrumented.docs_per_sec > instrumented_best) {
      instrumented_best = instrumented.docs_per_sec;
    }
  }
  double overhead_pct =
      plain_best > 0
          ? 100.0 * (plain_best - instrumented_best) / plain_best
          : 0.0;
  std::printf(
      "observability: %.1f docs/s plain, %.1f docs/s instrumented "
      "(%.1f%% overhead)\n",
      plain_best, instrumented_best, overhead_pct);

  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(json, "{\n  \"corpus_docs\": %zu,\n", jobs.size());
  xsdf::bench::WriteBenchEnvFields(json);
  std::fprintf(json, "  \"speedup_4t_vs_1t_cache_on\": %.3f,\n", speedup);
  std::fprintf(json, "  \"uninstrumented_docs_per_sec\": %.2f,\n",
               plain_best);
  std::fprintf(json, "  \"instrumented_docs_per_sec\": %.2f,\n",
               instrumented_best);
  std::fprintf(json, "  \"observability_overhead_pct\": %.2f,\n",
               overhead_pct);
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(json,
                 "    {\"threads\": %d, \"cache\": %s, \"warm\": %s, "
                 "\"seconds\": %.4f, \"docs_per_sec\": %.2f, "
                 "\"sim_hit_rate\": %.4f}%s\n",
                 r.threads, r.cache ? "true" : "false",
                 r.warm ? "true" : "false", r.seconds, r.docs_per_sec,
                 r.sim_hit_rate, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("results written to %s\n", json_path);
  return 0;
}
