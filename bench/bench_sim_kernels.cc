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
// The full run additionally times the dispatched id kernels at each
// supported level where production calls them (`simd_kernel_micro`):
// the first-occurrence find inside IdContextVector::Assign's dedup and
// inside its Cosine/Jaccard label lookups, and the early-exit
// intersect on random mini-WordNet concept pairs' gloss bags. Each row
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
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "common/simd.h"
#include "core/context_vector.h"
#include "core/disambiguator.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
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

/// One level's ns/call over the repeated runs of one kernel row.
struct LevelTiming {
  const char* level;
  double median_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
};

/// Per-level ns/call of one production call site of a dispatched id
/// kernel on one input.
struct MicroResult {
  const char* kernel;  // the production call that runs the kernel
  const char* input;
  double mean_len = 0.0;  // entries the kernel scans or merges per side
  size_t max_len = 0;
  std::vector<LevelTiming> levels;  // one per supported level, ascending
};

/// Runs `batch()` (which makes `calls` calls and returns a sink value)
/// kReps times at every supported level, the levels interleaved within
/// each run so that host drift lands on every level alike, and returns
/// each level's median and range in ns/call. A run is the best of
/// three batches, which keeps a preempted batch out of the record.
template <typename Batch>
std::vector<LevelTiming> TimeEveryLevel(size_t calls, Batch&& batch) {
  constexpr int kReps = 7;
  const std::vector<xsdf::simd::Level> levels = SupportedLevels();
  std::vector<std::vector<double>> runs(levels.size());
  double sink = 0.0;
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
  if (sink < 0.0) std::printf("impossible\n");
  std::vector<LevelTiming> out;
  for (size_t l = 0; l < levels.size(); ++l) {
    std::vector<double>& r = runs[l];
    std::sort(r.begin(), r.end());
    out.push_back({xsdf::simd::LevelName(levels[l]), r[r.size() / 2],
                   r.front(), r.back()});
  }
  return out;
}

/// What the context-based process (§3.5.2) hands IdContextVector when
/// it scores each evaluated target of the experiments corpus at radius
/// 2: the target's sphere, which Assign dedups, and the (target vector,
/// candidate vector) pairs Cosine/Jaccard compare. Also the radius-2
/// sphere of every node with senses of a 256 KB giant document, whose
/// wide blocks put up to hundreds of members in a sphere.
struct ContextInputs {
  std::vector<xsdf::core::IdSphere> corpus_spheres;
  std::vector<xsdf::core::IdSphere> giant_spheres;
  std::vector<std::pair<xsdf::core::IdContextVector,
                        xsdf::core::IdContextVector>>
      vector_pairs;
};

ContextInputs BuildContextInputs(const SemanticNetwork& network) {
  ContextInputs out;
  xsdf::core::LabelSpace labels(&network);
  auto corpus = xsdf::eval::BuildCorpus(network, &labels);
  if (!corpus.ok()) return out;
  for (const auto& doc : *corpus) {
    for (xsdf::xml::NodeId id : doc.target_sample) {
      const auto& senses = labels.Senses(doc.tree.label_id(id));
      if (!senses.has_senses()) continue;
      out.corpus_spheres.push_back(
          xsdf::core::BuildXmlIdSphere(doc.tree, id, 2));
      const xsdf::core::IdContextVector xml_vector(
          out.corpus_spheres.back());
      for (const auto& c : senses.candidates) {
        out.vector_pairs.emplace_back(
            xml_vector,
            xsdf::core::IdContextVector(
                c.is_compound() ? xsdf::core::BuildCompoundConceptIdSphere(
                                      network, c.primary, c.secondary, 2)
                                : xsdf::core::BuildConceptIdSphere(
                                      network, c.primary, 2)));
      }
    }
  }
  const auto giant = xsdf::datasets::GiantDocuments(1, 256u << 10, 1)[0];
  auto tree = xsdf::core::BuildTreeStreaming(
      giant.xml, network, xsdf::xml::ParseOptions{}, true, &labels);
  if (!tree.ok()) return out;
  for (xsdf::xml::NodeId id : tree->ids()) {
    if (!labels.Senses(tree->label_id(id)).has_senses()) continue;
    out.giant_spheres.push_back(xsdf::core::BuildXmlIdSphere(*tree, id, 2));
  }
  return out;
}

/// Times the dispatched id kernels at each supported level where
/// production calls them: the find in Assign's dedup over the corpus
/// and giant-document spheres and in the Cosine/Jaccard lookups over
/// the vector pairs (ContextInputs), and the early-exit intersect on
/// the gloss bags of random mini-WordNet concept pairs, each call
/// including the two bag lookups.
std::vector<MicroResult> RunSimdKernelMicro(const SemanticNetwork& network) {
  std::vector<MicroResult> results;
  // Adds the row of `kernel` on `input`: `batch()` makes `calls` calls
  // whose kernels scan or merge `lens` entries per side.
  auto add = [&](const char* kernel, const char* input,
                 const std::vector<size_t>& lens, size_t calls,
                 auto&& batch) {
    MicroResult m{kernel, input, 0.0, 0, {}};
    double total = 0.0;
    for (size_t len : lens) {
      total += static_cast<double>(len);
      m.max_len = std::max(m.max_len, len);
    }
    m.mean_len = lens.empty() ? 0.0 : total / static_cast<double>(lens.size());
    m.levels = TimeEveryLevel(calls, batch);
    results.push_back(std::move(m));
  };

  const ContextInputs inputs = BuildContextInputs(network);
  xsdf::core::IdContextVector scratch;
  for (const auto* spheres : {&inputs.corpus_spheres, &inputs.giant_spheres}) {
    std::vector<size_t> lens;
    for (const auto& sphere : *spheres) {
      scratch.Assign(sphere);
      lens.push_back(scratch.dimension_count());
    }
    const size_t rounds = spheres == &inputs.corpus_spheres ? 20 : 1;
    add("assign_dedup",
        spheres == &inputs.corpus_spheres ? "corpus_spheres" : "giant_spheres",
        lens, rounds * spheres->size(), [&, spheres, rounds] {
          double sink = 0.0;
          for (size_t r = 0; r < rounds; ++r) {
            for (const auto& sphere : *spheres) {
              scratch.Assign(sphere);
              sink += static_cast<double>(scratch.dimension_count());
            }
          }
          return sink;
        });
  }
  std::vector<size_t> pair_lens;
  for (const auto& [x, c] : inputs.vector_pairs) {
    pair_lens.push_back(x.dimension_count());
    pair_lens.push_back(c.dimension_count());
  }
  constexpr size_t kPairRounds = 20;
  add("cosine_lookup", "context_vectors", pair_lens,
      kPairRounds * inputs.vector_pairs.size(), [&] {
        double sink = 0.0;
        for (size_t r = 0; r < kPairRounds; ++r) {
          for (const auto& [x, c] : inputs.vector_pairs) sink += x.Cosine(c);
        }
        return sink;
      });
  add("jaccard_lookup", "context_vectors", pair_lens,
      kPairRounds * inputs.vector_pairs.size(), [&] {
        double sink = 0.0;
        for (size_t r = 0; r < kPairRounds; ++r) {
          for (const auto& [x, c] : inputs.vector_pairs) sink += x.Jaccard(c);
        }
        return sink;
      });

  const auto pairs = SamplePairs(network, 200000);
  std::vector<size_t> bag_lens;
  for (const auto& [a, b] : pairs) {
    bag_lens.push_back(network.GlossTokenBag(a).size());
    bag_lens.push_back(network.GlossTokenBag(b).size());
  }
  add("early_exit_intersect", "gloss_bags", bag_lens, pairs.size(), [&] {
    double sink = 0.0;
    for (const auto& [a, b] : pairs) {
      std::span<const uint32_t> ba = network.GlossTokenBag(a);
      std::span<const uint32_t> bb = network.GlossTokenBag(b);
      sink += xsdf::simd::SortedIntersectNonEmptyU32(ba.data(), ba.size(),
                                                     bb.data(), bb.size());
    }
    return sink;
  });
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
  std::printf("%-21s %-16s %8s", "simd kernel", "input", "mean len");
  for (xsdf::simd::Level level : levels) {
    std::printf(" %24s", xsdf::simd::LevelName(level));
  }
  std::printf("\n");
  for (const MicroResult& m : micro) {
    std::printf("%-21s %-16s %8.1f", m.kernel, m.input, m.mean_len);
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
                 m.kernel, m.input, m.mean_len, m.max_len);
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
