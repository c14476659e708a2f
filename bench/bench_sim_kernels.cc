// Microbenchmark for the interned id-based similarity kernels: ns/pair
// for each measure over deterministic random concept pairs of the
// mini-WordNet, legacy string-path kernels (the test-only oracle
// library, tests/oracles/) vs the precomputed-table kernels, plus the
// warm path (CombinedMeasure through a primed
// SimilarityCache, i.e. the steady-state cost at >99% hit rates).
// Results go to stdout and to a JSON file (argv[1] when it is not a
// flag, default BENCH_sim_kernels.json).
//
// `--smoke` skips the timing loops and only verifies that every fast
// kernel reproduces its legacy score bit-for-bit on the sampled pairs,
// at every supported SIMD dispatch level (nonzero exit on any
// mismatch) — cheap enough for CI.
//
// The full run additionally times the raw dispatched id kernels at
// each supported level (`simd_kernel_micro`): the stride-2, early-exit
// and positions intersects on random mini-WordNet concept pairs'
// ancestor rows and gloss bags, then the positions intersect and the
// first-occurrence find on synthetic sets of several sizes. Each row
// gives every level's median and range over 7 interleaved runs (each
// the best of three batches); a vector body is kept only where it
// beats the fastest level below it by more than its own range
// (DESIGN.md §12).

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "common/simd.h"
#include "core/context_vector.h"
#include "core/disambiguator.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "oracles/legacy_similarity.h"
#include "runtime/similarity_cache.h"
#include "sim/combined.h"
#include "sim/conceptual_density.h"
#include "sim/gloss_overlap.h"
#include "sim/lin.h"
#include "sim/measure_config.h"
#include "sim/resnik.h"
#include "sim/wu_palmer.h"
#include "wordnet/mini_wordnet.h"

namespace {

using xsdf::wordnet::ConceptId;
using xsdf::wordnet::SemanticNetwork;

std::vector<std::pair<ConceptId, ConceptId>> SamplePairs(
    const SemanticNetwork& network, size_t count) {
  std::mt19937 rng(20150324);
  std::uniform_int_distribution<int> pick(
      0, static_cast<int>(network.size()) - 1);
  std::vector<std::pair<ConceptId, ConceptId>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(pick(rng), pick(rng));
  }
  return pairs;
}

/// Best-of-`rounds` ns/pair for `fn(a, b)`; the score checksum defeats
/// dead-code elimination and is printed once per kernel.
template <typename Fn>
double TimePairs(const std::vector<std::pair<ConceptId, ConceptId>>& pairs,
                 int rounds, double* checksum, Fn&& fn) {
  double best_ns = 0.0;
  for (int round = 0; round < rounds; ++round) {
    double sum = 0.0;
    auto start = std::chrono::steady_clock::now();
    for (const auto& [a, b] : pairs) sum += fn(a, b);
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count() /
                static_cast<double>(pairs.size());
    if (round == 0 || ns < best_ns) best_ns = ns;
    *checksum = sum;
  }
  return best_ns;
}

struct KernelResult {
  std::string name;
  double legacy_ns = 0.0;
  double fast_ns = 0.0;
  double speedup() const {
    return fast_ns > 0.0 ? legacy_ns / fast_ns : 0.0;
  }
};

std::vector<xsdf::simd::Level> SupportedLevels() {
  std::vector<xsdf::simd::Level> levels = {xsdf::simd::Level::kScalar};
  if (xsdf::simd::DetectedLevel() >= xsdf::simd::Level::kSse2) {
    levels.push_back(xsdf::simd::Level::kSse2);
  }
  if (xsdf::simd::DetectedLevel() >= xsdf::simd::Level::kAvx2) {
    levels.push_back(xsdf::simd::Level::kAvx2);
  }
  return levels;
}

std::vector<uint32_t> StrictSet(std::mt19937& rng, size_t len,
                                uint32_t range) {
  std::set<uint32_t> s;
  std::uniform_int_distribution<uint32_t> pick(0, range);
  while (s.size() < len) s.insert(pick(rng));
  return {s.begin(), s.end()};
}

/// One level's ns/call over the repeated runs of one kernel row.
struct LevelTiming {
  const char* level;
  double median_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
};

/// Per-level ns/call of one dispatched id kernel on one input.
struct MicroResult {
  const char* kernel;
  std::string input;  // "ancestor_rows", "gloss_bags", "synthetic_<len>"
  double mean_len = 0.0;
  size_t max_len = 0;
  std::vector<LevelTiming> levels;  // one per supported level, ascending
};

/// Runs `batch()` (which makes `calls` kernel calls and returns a sink
/// value) kReps times at every supported level, the levels interleaved
/// within each run so that host drift lands on every level alike, and
/// returns each level's median and range in ns/call. A run is the best
/// of three batches, which keeps a preempted batch out of the record.
template <typename Batch>
std::vector<LevelTiming> TimeEveryLevel(size_t calls, Batch&& batch) {
  constexpr int kReps = 7;
  const std::vector<xsdf::simd::Level> levels = SupportedLevels();
  std::vector<std::vector<double>> runs(levels.size());
  size_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t l = 0; l < levels.size(); ++l) {
      xsdf::simd::ForceLevel(levels[l]);
      double best_ns = 0.0;
      for (int pass = 0; pass < 3; ++pass) {
        auto start = std::chrono::steady_clock::now();
        sink += batch();
        double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count() /
                    static_cast<double>(calls);
        if (pass == 0 || ns < best_ns) best_ns = ns;
      }
      runs[l].push_back(best_ns);
    }
  }
  xsdf::simd::ForceLevel(xsdf::simd::DetectedLevel());
  if (sink == static_cast<size_t>(-1)) std::printf("impossible\n");
  std::vector<LevelTiming> out;
  for (size_t l = 0; l < levels.size(); ++l) {
    std::vector<double>& r = runs[l];
    std::sort(r.begin(), r.end());
    out.push_back({xsdf::simd::LevelName(levels[l]), r[r.size() / 2],
                   r.front(), r.back()});
  }
  return out;
}

using IdSetPair = std::pair<std::vector<uint32_t>, std::vector<uint32_t>>;

/// The label-id sets the context-based process (§3.5.2) intersects:
/// each evaluated target of the experiments corpus has its radius-2
/// sphere compared with the sphere of each of its candidates, as sorted
/// distinct ids (what IdContextVector::Cosine hands the kernel).
std::vector<IdSetPair> ContextVectorPairs(const SemanticNetwork& network) {
  std::vector<IdSetPair> out;
  xsdf::core::LabelSpace labels(&network);
  auto corpus = xsdf::eval::BuildCorpus(network, &labels);
  if (!corpus.ok()) return out;
  auto sorted_ids = [](const xsdf::core::IdSphere& sphere) {
    xsdf::core::IdContextVector vector(sphere);
    std::vector<uint32_t> ids(vector.ids().begin(), vector.ids().end());
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (const auto& doc : *corpus) {
    for (xsdf::xml::NodeId id : doc.target_sample) {
      const auto& senses = labels.Senses(doc.tree.label_id(id));
      if (!senses.has_senses()) continue;
      std::vector<uint32_t> xml_ids =
          sorted_ids(xsdf::core::BuildXmlIdSphere(doc.tree, id, 2));
      for (const auto& c : senses.candidates) {
        out.emplace_back(
            xml_ids, sorted_ids(c.is_compound()
                                    ? xsdf::core::BuildCompoundConceptIdSphere(
                                          network, c.primary, c.secondary, 2)
                                    : xsdf::core::BuildConceptIdSphere(
                                          network, c.primary, 2)));
      }
    }
  }
  return out;
}

/// Times the dispatched id kernels at each supported level: first on
/// what production feeds them (the stride-2 intersect on the ancestor
/// rows and the early-exit intersect on the gloss bags of random
/// mini-WordNet concept pairs, each call including the two row lookups;
/// the positions intersect on the same bags and on ContextVectorPairs),
/// then on synthetic strictly increasing set pairs (~30% overlap) of
/// several sizes.
std::vector<MicroResult> RunSimdKernelMicro(const SemanticNetwork& network) {
  std::vector<MicroResult> results;
  std::vector<uint32_t> out_a;
  std::vector<uint32_t> out_b;
  // Adds the row of `kernel(row(a), row(b))` over `pairs`, each pass
  // making `rounds` sweeps.
  auto add = [&](const char* kernel, std::string input, const auto& pairs,
                 auto&& row, size_t rounds, auto&& call) {
    MicroResult m{kernel, std::move(input), 0.0, 0, {}};
    size_t total = 0;
    for (const auto& [a, b] : pairs) {
      total += row(a).size() + row(b).size();
      m.max_len = std::max({m.max_len, row(a).size(), row(b).size()});
    }
    m.mean_len = static_cast<double>(total) / (2.0 * pairs.size());
    out_a.resize(std::max(out_a.size(), m.max_len));
    out_b.resize(out_a.size());
    m.levels = TimeEveryLevel(rounds * pairs.size(), [&] {
      size_t sink = 0;
      for (size_t r = 0; r < rounds; ++r) {
        for (const auto& [a, b] : pairs) sink += call(row(a), row(b));
      }
      return sink;
    });
    results.push_back(std::move(m));
  };
  using Ids = std::span<const uint32_t>;
  auto positions = [&](Ids a, Ids b) {
    return xsdf::simd::SortedIntersectPositionsU32(
        a.data(), a.size(), b.data(), b.size(), out_a.data(), out_b.data());
  };
  auto ancestors = [&](ConceptId c) { return network.Ancestors(c); };
  auto bag = [&](ConceptId c) { return network.GlossTokenBag(c); };
  auto as_is = [](const std::vector<uint32_t>& v) { return Ids(v); };

  const auto pairs = SamplePairs(network, 200000);
  add("stride2_intersect", "ancestor_rows", pairs, ancestors, 1,
      [&](auto a, auto b) {
        return xsdf::simd::SortedIntersectPositionsStride2(
            reinterpret_cast<const uint32_t*>(a.data()), a.size(),
            reinterpret_cast<const uint32_t*>(b.data()), b.size(),
            out_a.data(), out_b.data());
      });
  add("early_exit_intersect", "gloss_bags", pairs, bag, 1, [](Ids a, Ids b) {
    return size_t{xsdf::simd::SortedIntersectNonEmptyU32(a.data(), a.size(),
                                                         b.data(), b.size())};
  });
  add("positions_intersect", "gloss_bags", pairs, bag, 1, positions);
  add("positions_intersect", "context_vectors", ContextVectorPairs(network),
      as_is, 20, positions);

  std::mt19937 rng(20150324);
  for (size_t len : {16, 64, 256}) {
    std::vector<IdSetPair> sets;
    for (int i = 0; i < 64; ++i) {
      sets.emplace_back(StrictSet(rng, len, static_cast<uint32_t>(3 * len)),
                        StrictSet(rng, len, static_cast<uint32_t>(3 * len)));
    }
    const std::string input = "synthetic_" + std::to_string(len);
    const size_t rounds = len >= 256 ? 200 : 1000;
    add("positions_intersect", input, sets, as_is, rounds, positions);
    // Worst-case find: the probed value is absent, so every level
    // scans the full array.
    add("find_first", input, sets, as_is, rounds, [](Ids a, Ids) {
      return xsdf::simd::FindU32(a.data(), a.size(), 0xffffffffu);
    });
  }
  return results;
}

/// One row of the accuracy-vs-latency table: full disambiguation over
/// the generated experiments corpus under one measure composition.
struct AccuracyLatency {
  std::string label;
  std::string spec;
  xsdf::eval::PrfScores scores;
  double us_per_doc = 0.0;
};

/// Scores every production composition on the experiments corpus
/// (single thread, radius 2) and times RunOnTree only — the data
/// behind README's "Choosing measures" table. Accuracy must match
/// tests/golden/accuracy_golden.json; latency is this machine's.
std::vector<AccuracyLatency> RunAccuracyVsLatency(
    const SemanticNetwork& network) {
  std::vector<AccuracyLatency> out;
  xsdf::core::LabelSpace labels(&network);
  auto corpus_result = xsdf::eval::BuildCorpus(network, &labels);
  if (!corpus_result.ok()) {
    std::fprintf(stderr, "BuildCorpus: %s\n",
                 corpus_result.status().ToString().c_str());
    return out;
  }
  const auto& corpus = *corpus_result;

  std::vector<std::pair<std::string, xsdf::sim::MeasureConfig>> configs;
  configs.emplace_back("paper-hybrid",
                       xsdf::sim::MeasureConfig::PaperHybrid());
  for (const char* name : {"wu-palmer", "lin", "gloss-overlap", "resnik",
                           "conceptual-density"}) {
    xsdf::sim::MeasureConfig single;
    single.entries = {{name, 1.0}};
    configs.emplace_back(name, single);
  }
  configs.emplace_back(
      "hybrid-plus-density",
      *xsdf::sim::MeasureConfig::Parse(
          "wu-palmer:0.25,lin:0.25,gloss-overlap:0.25,"
          "conceptual-density:0.25"));

  for (const auto& [label, config] : configs) {
    xsdf::core::DisambiguatorOptions options;
    options.label_space = &labels;
    options.sphere_radius = 2;
    options.measure_config = config;
    xsdf::core::Disambiguator disambiguator(&network, options);
    std::vector<xsdf::eval::PrfScores> parts;
    double total_us = 0.0;
    size_t docs = 0;
    for (const auto& doc : corpus) {
      auto start = std::chrono::steady_clock::now();
      auto result = disambiguator.RunOnTree(doc.tree);
      total_us += std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (!result.ok()) continue;
      ++docs;
      parts.push_back(
          xsdf::eval::ScoreOnNodes(*result, doc.gold, doc.target_sample));
    }
    AccuracyLatency row;
    row.label = label;
    row.spec = config.ToSpec();
    row.scores = xsdf::eval::CombinePrf(parts);
    row.us_per_doc = docs > 0 ? total_us / static_cast<double>(docs) : 0.0;
    out.push_back(row);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = "BENCH_sim_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  auto network_result = xsdf::wordnet::BuildMiniWordNet();
  if (!network_result.ok()) {
    std::fprintf(stderr, "%s\n",
                 network_result.status().ToString().c_str());
    return 1;
  }
  const SemanticNetwork& network = *network_result;

  const size_t pair_count = smoke ? 500 : 4000;
  auto pairs = SamplePairs(network, pair_count);

  xsdf::sim::WuPalmerMeasure wu_palmer;
  xsdf::sim::ResnikMeasure resnik;
  xsdf::sim::LinMeasure lin;
  xsdf::sim::GlossOverlapMeasure gloss;
  xsdf::sim::ConceptualDensityMeasure density;

  // Bit-exact equivalence gate: every fast kernel must reproduce its
  // legacy score on every sampled pair. Run in both modes — a
  // benchmark comparing two kernels that disagree is meaningless.
  struct Check {
    const char* name;
    double (*fast)(const SemanticNetwork&, ConceptId, ConceptId);
    double (*legacy)(const SemanticNetwork&, ConceptId, ConceptId);
  };
  auto wu_fast = [](const SemanticNetwork& n, ConceptId a, ConceptId b) {
    return xsdf::sim::WuPalmerMeasure().Similarity(n, a, b);
  };
  auto resnik_fast = [](const SemanticNetwork& n, ConceptId a,
                        ConceptId b) {
    return xsdf::sim::ResnikMeasure().Similarity(n, a, b);
  };
  auto lin_fast = [](const SemanticNetwork& n, ConceptId a, ConceptId b) {
    return xsdf::sim::LinMeasure().Similarity(n, a, b);
  };
  auto gloss_fast = [](const SemanticNetwork& n, ConceptId a,
                       ConceptId b) {
    return xsdf::sim::GlossOverlapMeasure().Similarity(n, a, b);
  };
  auto density_fast = [](const SemanticNetwork& n, ConceptId a,
                         ConceptId b) {
    // One shared instance: the subtree table is lazily built once, as
    // in production; a fresh instance per call would time table builds.
    static xsdf::sim::ConceptualDensityMeasure measure;
    return measure.Similarity(n, a, b);
  };
  const Check checks[] = {
      {"wu_palmer", wu_fast, &xsdf::oracles::LegacyWuPalmer},
      {"resnik", resnik_fast, &xsdf::oracles::LegacyResnik},
      {"lin", lin_fast, &xsdf::oracles::LegacyLin},
      {"gloss_overlap", gloss_fast, &xsdf::oracles::LegacyGlossOverlap},
      {"conceptual_density", density_fast,
       &xsdf::oracles::LegacyConceptualDensity},
  };
  size_t mismatches = 0;
  const std::vector<xsdf::simd::Level> levels = SupportedLevels();
  for (xsdf::simd::Level level : levels) {
    xsdf::simd::ForceLevel(level);
    for (const Check& check : checks) {
      for (const auto& [a, b] : pairs) {
        double fast = check.fast(network, a, b);
        double legacy = check.legacy(network, a, b);
        if (std::bit_cast<uint64_t>(fast) !=
            std::bit_cast<uint64_t>(legacy)) {
          std::fprintf(
              stderr, "%s (%s) mismatch on (%d, %d): fast=%.17g legacy=%.17g\n",
              check.name, xsdf::simd::LevelName(level), a, b, fast, legacy);
          ++mismatches;
        }
      }
    }
  }
  xsdf::simd::ForceLevel(xsdf::simd::DetectedLevel());
  if (mismatches > 0) {
    std::fprintf(stderr, "%zu kernel mismatches\n", mismatches);
    return 1;
  }
  std::printf("equivalence: %zu pairs x 5 kernels x %zu levels "
              "bit-identical\n",
              pairs.size(), levels.size());
  if (smoke) return 0;

  const int rounds = 5;
  double checksum = 0.0;
  std::vector<KernelResult> results;

  KernelResult wu{"wu_palmer"};
  wu.legacy_ns = TimePairs(pairs, rounds, &checksum,
                           [&](ConceptId a, ConceptId b) {
                             return xsdf::oracles::LegacyWuPalmer(network,
                                                                  a, b);
                           });
  wu.fast_ns = TimePairs(pairs, rounds, &checksum,
                         [&](ConceptId a, ConceptId b) {
                           return wu_palmer.Similarity(network, a, b);
                         });
  results.push_back(wu);

  KernelResult re{"resnik"};
  re.legacy_ns = TimePairs(pairs, rounds, &checksum,
                           [&](ConceptId a, ConceptId b) {
                             return xsdf::oracles::LegacyResnik(network, a,
                                                                b);
                           });
  re.fast_ns = TimePairs(pairs, rounds, &checksum,
                         [&](ConceptId a, ConceptId b) {
                           return resnik.Similarity(network, a, b);
                         });
  results.push_back(re);

  KernelResult li{"lin"};
  li.legacy_ns = TimePairs(pairs, rounds, &checksum,
                           [&](ConceptId a, ConceptId b) {
                             return xsdf::oracles::LegacyLin(network, a, b);
                           });
  li.fast_ns = TimePairs(pairs, rounds, &checksum,
                         [&](ConceptId a, ConceptId b) {
                           return lin.Similarity(network, a, b);
                         });
  results.push_back(li);

  KernelResult gl{"gloss_overlap"};
  gl.legacy_ns = TimePairs(pairs, rounds, &checksum,
                           [&](ConceptId a, ConceptId b) {
                             return xsdf::oracles::LegacyGlossOverlap(
                                 network, a, b);
                           });
  gl.fast_ns = TimePairs(pairs, rounds, &checksum,
                         [&](ConceptId a, ConceptId b) {
                           return gloss.Similarity(network, a, b);
                         });
  results.push_back(gl);

  KernelResult cd{"conceptual_density"};
  cd.legacy_ns = TimePairs(pairs, rounds, &checksum,
                           [&](ConceptId a, ConceptId b) {
                             return xsdf::oracles::LegacyConceptualDensity(
                                 network, a, b);
                           });
  // Prime the lazily built subtree table so fast_ns is the per-pair
  // steady state, not a one-off table build.
  density.Similarity(network, pairs[0].first, pairs[0].second);
  cd.fast_ns = TimePairs(pairs, rounds, &checksum,
                         [&](ConceptId a, ConceptId b) {
                           return density.Similarity(network, a, b);
                         });
  results.push_back(cd);

  // Warm path: CombinedMeasure through a primed shared SimilarityCache
  // — the cost of a cache hit, which dominates steady-state batches.
  xsdf::sim::CombinedMeasure combined;
  xsdf::runtime::SimilarityCache cache(
      1 << 18, 16,
      xsdf::runtime::SimilarityCache::ConfigFingerprint(combined.config()));
  combined.set_external_cache(&cache);
  for (const auto& [a, b] : pairs) combined.Similarity(network, a, b);
  double warm_ns = TimePairs(pairs, rounds, &checksum,
                             [&](ConceptId a, ConceptId b) {
                               return combined.Similarity(network, a, b);
                             });

  std::printf("%zu pairs, best of %d rounds (checksum %.6f)\n",
              pairs.size(), rounds, checksum);
  std::printf("%-14s %14s %14s %9s\n", "kernel", "legacy ns/pair",
              "fast ns/pair", "speedup");
  for (const KernelResult& r : results) {
    std::printf("%-14s %14.1f %14.1f %8.2fx\n", r.name.c_str(),
                r.legacy_ns, r.fast_ns, r.speedup());
  }
  std::printf("%-14s %14s %14.1f\n", "combined-warm", "-", warm_ns);

  // Full-pipeline accuracy vs latency per measure composition.
  std::vector<AccuracyLatency> accuracy = RunAccuracyVsLatency(network);
  std::printf("%-20s %9s %9s %9s %11s\n", "composition", "precision",
              "recall", "f", "us/doc");
  for (const AccuracyLatency& row : accuracy) {
    std::printf("%-20s %9.4f %9.4f %9.4f %11.1f\n", row.label.c_str(),
                row.scores.precision, row.scores.recall,
                row.scores.f_value, row.us_per_doc);
  }

  // Raw dispatched-kernel timings per level: the lane-width effect
  // itself, isolated from measure-level table walks and FP.
  std::vector<MicroResult> micro = RunSimdKernelMicro(network);
  std::printf("%-21s %-14s %8s", "simd kernel", "input", "mean len");
  for (xsdf::simd::Level level : levels) {
    std::printf(" %24s", xsdf::simd::LevelName(level));
  }
  std::printf("\n");
  for (const MicroResult& m : micro) {
    std::printf("%-21s %-14s %8.1f", m.kernel, m.input.c_str(), m.mean_len);
    for (const LevelTiming& t : m.levels) {
      std::printf("  %7.1f (%7.1f-%7.1f)", t.median_ns, t.min_ns, t.max_ns);
    }
    std::printf("\n");
  }

  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(json, "{\n  \"pairs\": %zu,\n", pairs.size());
  std::fprintf(json, "  \"rounds\": %d,\n", rounds);
  xsdf::bench::WriteBenchEnvFields(json);
  std::fprintf(json, "  \"combined_warm_hit_ns_per_pair\": %.1f,\n",
               warm_ns);
  std::fprintf(json, "  \"kernels\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"legacy_ns_per_pair\": %.1f, "
                 "\"fast_ns_per_pair\": %.1f, \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.legacy_ns, r.fast_ns, r.speedup(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"accuracy_vs_latency\": [\n");
  for (size_t i = 0; i < accuracy.size(); ++i) {
    const AccuracyLatency& row = accuracy[i];
    std::fprintf(json,
                 "    {\"label\": \"%s\", \"measures\": \"%s\", "
                 "\"precision\": %.4f, \"recall\": %.4f, \"f\": %.4f, "
                 "\"us_per_doc\": %.1f}%s\n",
                 row.label.c_str(), row.spec.c_str(),
                 row.scores.precision, row.scores.recall,
                 row.scores.f_value, row.us_per_doc,
                 i + 1 < accuracy.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"simd_kernel_micro\": [\n");
  for (size_t i = 0; i < micro.size(); ++i) {
    const MicroResult& m = micro[i];
    std::fprintf(json,
                 "    {\"kernel\": \"%s\", \"input\": \"%s\", "
                 "\"mean_len\": %.1f, \"max_len\": %zu",
                 m.kernel, m.input.c_str(), m.mean_len, m.max_len);
    for (const LevelTiming& t : m.levels) {
      std::fprintf(json,
                   ", \"%s_ns\": %.1f, \"%s_range_ns\": [%.1f, %.1f]",
                   t.level, t.median_ns, t.level, t.min_ns, t.max_ns);
    }
    std::fprintf(json, "}%s\n", i + 1 < micro.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("results written to %s\n", json_path);
  return 0;
}
