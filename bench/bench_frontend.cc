// Microbenchmark for the interned front end: per-stage timings for the
// parse -> labeled-tree -> sphere -> context-vector half of the
// pipeline, string-keyed baseline vs the id path.
//
// The baseline reconstructs the pre-interning front end: a parse into
// the test-only DOM (oracles::ParseDom), then the DOM walk
// (oracles::BuildTreeViaDom) with the raw (non-memoized) per-node
// PreprocessTagName / PreprocessTextValue hooks plus the one
// build-local intern every tree node needs, then the string-keyed
// BuildXmlSphere / ContextVector / ResolvedContext of the test-only
// oracle library (tests/oracles/).
// The fast path is what the runtime runs: core::BuildTreeStreaming()
// with a LabelSpace (one streaming pass, memoized pre-processing +
// interning at build time), then BuildXmlIdSphere / IdContextVector /
// IdResolvedContext over flat id arrays. Results go to stdout and to a
// JSON file (argv[1] when it is not a flag, default
// BENCH_frontend.json).
//
// `--smoke` skips the timing loops and only verifies that the id path
// reproduces the string path bit-for-bit over the corpus — labels,
// context-vector dimensions, and every weight double (nonzero exit on
// any mismatch) — cheap enough for CI.

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench_env.h"
#include "common/token_interner.h"
#include "core/context_vector.h"
#include "core/label_space.h"
#include "core/scores.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "oracles/dom.h"
#include "oracles/dom_tree_builder.h"
#include "oracles/string_pipeline.h"
#include "runtime/engine.h"
#include "text/preprocess.h"
#include "wordnet/mini_wordnet.h"
#include "xml/labeled_tree.h"
#include "xml/parser.h"

namespace {

using xsdf::core::BuildXmlIdSphere;
using xsdf::core::IdContextVector;
using xsdf::core::IdResolvedContext;
using xsdf::core::LabelSpace;
using xsdf::oracles::BuildXmlSphere;
using xsdf::oracles::ContextVector;
using xsdf::oracles::ResolvedContext;
using xsdf::wordnet::SemanticNetwork;
using xsdf::xml::LabeledTree;
using xsdf::core::ResolvedLabel;

constexpr int kRadius = 2;  ///< DisambiguatorOptions::sphere_radius

std::vector<std::string> CorpusXml() {
  std::vector<std::string> xml;
  for (const auto& doc : xsdf::datasets::Figure1Documents()) {
    xml.push_back(doc.xml);
  }
  for (const auto* generator : xsdf::datasets::AllDatasets()) {
    for (const auto& doc : generator->Generate(/*seed=*/11)) {
      xml.push_back(doc.xml);
    }
  }
  return xml;
}

/// The pre-interning tree build: the production pre-processing, run
/// per node without its memo tables and interned into a build-local
/// TokenInterner instead of a LabelSpace, through the DOM walk.
xsdf::Result<LabeledTree> BuildTreeBaseline(const xsdf::oracles::Document& doc,
                                            const SemanticNetwork& network) {
  xsdf::text::LexiconProbe probe = [&network](const std::string& lemma) {
    return network.Contains(lemma);
  };
  xsdf::TokenInterner interner;
  ResolvedLabel tag;
  std::vector<ResolvedLabel> tokens;
  return xsdf::oracles::BuildTreeViaDom(
      doc, /*include_values=*/true, /*label_source=*/0,
      [&](std::string_view raw) -> const ResolvedLabel& {
        tag.label = xsdf::text::PreprocessTagName(raw, probe).label;
        tag.id = interner.Intern(tag.label);
        return tag;
      },
      [&](std::string_view value) -> const std::vector<ResolvedLabel>& {
        tokens.clear();
        for (std::string& token :
             xsdf::text::PreprocessTextValue(value, probe)) {
          ResolvedLabel& resolved = tokens.emplace_back();
          resolved.label = std::move(token);
          if (!resolved.label.empty()) {
            resolved.id = interner.Intern(resolved.label);
          }
        }
        return tokens;
      });
}

/// Best-of-`rounds` total ns for `fn()`; the checksum defeats
/// dead-code elimination.
template <typename Fn>
double TimeStage(int rounds, double* checksum, Fn&& fn) {
  double best_ns = 0.0;
  for (int round = 0; round < rounds; ++round) {
    auto start = std::chrono::steady_clock::now();
    double sum = fn();
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (round == 0 || ns < best_ns) best_ns = ns;
    *checksum = sum;
  }
  return best_ns;
}

struct StageResult {
  std::string name;
  double baseline_ns = 0.0;
  double fast_ns = 0.0;
  double speedup() const {
    return fast_ns > 0.0 ? baseline_ns / fast_ns : 0.0;
  }
};

double SumVector(const ContextVector& vector) {
  double sum = 0.0;
  for (const auto& [label, weight] : vector.weights()) sum += weight;
  return sum;
}

double SumVector(const IdContextVector& vector) {
  double sum = 0.0;
  for (double weight : vector.weights()) sum += weight;
  return sum;
}

/// The giant-document section: streaming vs DOM front end on one
/// ~50 MB synthetic document (time + transient memory beyond the
/// input buffer), and the engine's 1-vs-8-worker end-to-end run on a
/// smaller giant document (steal counts + scaling).
struct GiantDocResult {
  size_t frontend_doc_bytes = 0;
  double streaming_build_us = 0.0;
  double dom_build_us = 0.0;
  size_t scaffold_peak_bytes = 0;   ///< streaming transient scaffold
  double scaffold_pct_of_doc = 0.0;
  size_t engine_doc_bytes = 0;
  double engine_1t_us = 0.0;
  double engine_8t_us = 0.0;
  double speedup_8t_vs_1t = 0.0;
  double docs_per_s_8t = 0.0;
  uint64_t subtree_steals = 0;
};

GiantDocResult RunGiantDocSection(const SemanticNetwork& network) {
  GiantDocResult giant;

  // Front-end memory + time on the acceptance-sized document.
  {
    auto docs = xsdf::datasets::GiantDocuments(
        /*count=*/1, /*target_bytes=*/50u << 20, /*seed=*/17);
    const std::string& xml = docs[0].xml;
    giant.frontend_doc_bytes = xml.size();
    for (int round = 0; round < 2; ++round) {
      LabelSpace space(&network);
      xsdf::core::StreamingBuildStats stats;
      auto start = std::chrono::steady_clock::now();
      auto tree = xsdf::core::BuildTreeStreaming(
          xml, network, {}, /*include_values=*/true, &space, nullptr,
          &stats);
      double us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (!tree.ok()) {
        std::fprintf(stderr, "giant streaming build failed: %s\n",
                     tree.status().ToString().c_str());
        return giant;
      }
      if (round == 0 || us < giant.streaming_build_us) {
        giant.streaming_build_us = us;
      }
      giant.scaffold_peak_bytes = stats.scaffold_peak_bytes;
    }
    for (int round = 0; round < 2; ++round) {
      LabelSpace space(&network);
      auto start = std::chrono::steady_clock::now();
      auto doc = xsdf::oracles::ParseDom(xml);
      if (!doc.ok()) {
        std::fprintf(stderr, "giant DOM parse failed: %s\n",
                     doc.status().ToString().c_str());
        return giant;
      }
      auto tree =
          xsdf::oracles::BuildTreeViaDom(*doc, network, true, &space);
      double us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (!tree.ok()) return giant;
      if (round == 0 || us < giant.dom_build_us) giant.dom_build_us = us;
    }
    giant.scaffold_pct_of_doc =
        100.0 * static_cast<double>(giant.scaffold_peak_bytes) /
        static_cast<double>(xml.size());
  }

  // End-to-end engine scaling on one smaller giant document (the full
  // disambiguation dominates here, so a multi-MB doc is plenty to
  // exercise the subtree fan-out).
  {
    auto docs = xsdf::datasets::GiantDocuments(
        /*count=*/1, /*target_bytes=*/4u << 20, /*seed=*/17);
    giant.engine_doc_bytes = docs[0].xml.size();
    std::vector<xsdf::runtime::DocumentJob> jobs;
    jobs.push_back({0, docs[0].name, std::move(docs[0].xml)});
    for (int threads : {1, 8}) {
      xsdf::runtime::EngineOptions options;
      options.threads = threads;
      xsdf::runtime::DisambiguationEngine engine(&network, options);
      auto start = std::chrono::steady_clock::now();
      auto results = engine.RunBatch(jobs);
      double us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (results.empty() || !results[0].ok) {
        std::fprintf(stderr, "giant engine run failed (%d threads)\n",
                     threads);
        return giant;
      }
      if (threads == 1) {
        giant.engine_1t_us = us;
      } else {
        giant.engine_8t_us = us;
        giant.docs_per_s_8t = us > 0.0 ? 1e6 / us : 0.0;
        giant.subtree_steals = engine.stats().subtree_steals;
      }
    }
    giant.speedup_8t_vs_1t = giant.engine_8t_us > 0.0
                                 ? giant.engine_1t_us / giant.engine_8t_us
                                 : 0.0;
  }
  return giant;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = "BENCH_frontend.json";
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
  LabelSpace space(&network);

  const std::vector<std::string> corpus = CorpusXml();

  // Pre-build both tree flavors once for the per-stage loops (each
  // timed stage then re-runs only its own work) and for the
  // equivalence gate.
  std::vector<std::string> docs;
  std::vector<LabeledTree> baseline_trees;
  std::vector<LabeledTree> id_trees;
  for (const std::string& xml : corpus) {
    auto doc = xsdf::oracles::ParseDom(xml);
    if (!doc.ok()) continue;
    auto baseline = BuildTreeBaseline(*doc, network);
    auto fast = xsdf::core::BuildTreeStreaming(xml, network, {}, true, &space);
    if (!baseline.ok() || !fast.ok()) continue;
    docs.push_back(xml);
    baseline_trees.push_back(std::move(baseline).value());
    id_trees.push_back(std::move(fast).value());
  }
  if (docs.empty()) {
    std::fprintf(stderr, "no parsable corpus documents\n");
    return 1;
  }

  // Bit-exact equivalence gate, run in both modes: per node, the two
  // tree builds must agree on labels, and the id sphere/vector must
  // reproduce the string sphere/vector — same dimensions (spelled the
  // same) and bitwise-equal weight doubles.
  size_t mismatches = 0;
  size_t nodes_checked = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    const LabeledTree& baseline_tree = baseline_trees[d];
    const LabeledTree& id_tree = id_trees[d];
    if (baseline_tree.size() != id_tree.size()) {
      std::fprintf(stderr, "doc %zu: tree shape mismatch\n", d);
      ++mismatches;
      continue;
    }
    for (size_t n = 0; n < id_tree.size(); ++n) {
      const auto id = static_cast<xsdf::xml::NodeId>(n);
      if (baseline_tree.label(id) != id_tree.label(id) ||
          space.Spelling(id_tree.label_id(id)) != id_tree.label(id)) {
        std::fprintf(stderr, "doc %zu node %zu: label mismatch\n", d, n);
        ++mismatches;
        continue;
      }
      ContextVector vector(
          BuildXmlSphere(baseline_tree, id, kRadius));
      IdContextVector id_vector(
          BuildXmlIdSphere(id_tree, id, kRadius));
      ++nodes_checked;
      if (vector.dimension_count() != id_vector.dimension_count() ||
          vector.sphere_size() != id_vector.sphere_size()) {
        std::fprintf(stderr, "doc %zu node %zu: vector shape mismatch\n",
                     d, n);
        ++mismatches;
        continue;
      }
      for (size_t k = 0; k < id_vector.dimension_count(); ++k) {
        const auto& [label, weight] = vector.weights()[k];
        if (space.Spelling(id_vector.ids()[k]) != label ||
            std::bit_cast<uint64_t>(weight) !=
                std::bit_cast<uint64_t>(id_vector.weights()[k])) {
          std::fprintf(stderr,
                       "doc %zu node %zu dim %zu: weight mismatch\n", d,
                       n, k);
          ++mismatches;
        }
      }
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "%zu front-end mismatches\n", mismatches);
    return 1;
  }
  std::printf(
      "equivalence: %zu docs, %zu node contexts bit-identical\n",
      docs.size(), nodes_checked);
  if (smoke) return 0;

  const int rounds = 5;
  double checksum = 0.0;
  std::vector<StageResult> results;
  size_t total_nodes = 0;
  for (const LabeledTree& tree : id_trees) total_nodes += tree.size();

  // parse: the DOM parse the baseline pays inside tree_build; reported
  // for context, not compared.
  double parse_ns = TimeStage(rounds, &checksum, [&] {
    double sum = 0.0;
    for (const std::string& xml : corpus) {
      auto doc = xsdf::oracles::ParseDom(xml);
      if (doc.ok()) sum += static_cast<double>(doc->CountElements());
    }
    return sum;
  });

  // tree_build: XML text to labeled tree on both arms (parse + walk vs
  // the one streaming pass).
  StageResult tree_stage{"tree_build"};
  tree_stage.baseline_ns = TimeStage(rounds, &checksum, [&] {
    double sum = 0.0;
    for (const std::string& xml : docs) {
      auto doc = xsdf::oracles::ParseDom(xml);
      if (!doc.ok()) continue;
      auto tree = BuildTreeBaseline(*doc, network);
      if (tree.ok()) sum += static_cast<double>(tree->size());
    }
    return sum;
  });
  // The id arm runs with the persistent per-worker cache the engine
  // keeps, so rounds measure the warmed steady state the runtime sees.
  xsdf::core::TreeBuildCache tree_cache;
  tree_stage.fast_ns = TimeStage(rounds, &checksum, [&] {
    double sum = 0.0;
    for (const std::string& xml : docs) {
      auto tree = xsdf::core::BuildTreeStreaming(xml, network, {}, true,
                                                 &space, &tree_cache);
      if (tree.ok()) sum += static_cast<double>(tree->size());
    }
    return sum;
  });
  results.push_back(tree_stage);

  StageResult sphere_stage{"sphere_vector"};
  sphere_stage.baseline_ns = TimeStage(rounds, &checksum, [&] {
    double sum = 0.0;
    for (const LabeledTree& tree : baseline_trees) {
      for (size_t n = 0; n < tree.size(); ++n) {
        ContextVector vector(BuildXmlSphere(
            tree, static_cast<xsdf::xml::NodeId>(n), kRadius));
        sum += SumVector(vector);
      }
    }
    return sum;
  });
  sphere_stage.fast_ns = TimeStage(rounds, &checksum, [&] {
    double sum = 0.0;
    // Same reuse pattern as the disambiguator hot loop: one sphere and
    // one vector, rebuilt per node with their capacity kept.
    xsdf::core::IdSphere sphere;
    IdContextVector vector;
    for (const LabeledTree& tree : id_trees) {
      for (size_t n = 0; n < tree.size(); ++n) {
        BuildXmlIdSphere(tree, static_cast<xsdf::xml::NodeId>(n), kRadius,
                         /*exclude_tokens=*/false, &sphere);
        vector.Assign(sphere);
        sum += SumVector(vector);
      }
    }
    return sum;
  });
  results.push_back(sphere_stage);

  // resolve: sphere context -> sense inventory resolution, the step
  // between the vector and candidate scoring (string path re-splits
  // and re-hashes every label; id path reads the memoized table).
  StageResult resolve_stage{"context_resolve"};
  resolve_stage.baseline_ns = TimeStage(rounds, &checksum, [&] {
    double sum = 0.0;
    for (const LabeledTree& tree : baseline_trees) {
      for (size_t n = 0; n < tree.size(); ++n) {
        const auto id = static_cast<xsdf::xml::NodeId>(n);
        auto sphere = BuildXmlSphere(tree, id, kRadius);
        ContextVector vector(sphere);
        ResolvedContext resolved(network, sphere, vector);
        sum += 1.0;
      }
    }
    return sum;
  });
  resolve_stage.fast_ns = TimeStage(rounds, &checksum, [&] {
    double sum = 0.0;
    // The disambiguator's buffers: one sphere, vector and resolved
    // context, reassigned per node.
    xsdf::core::IdSphere sphere;
    IdContextVector vector;
    IdResolvedContext resolved;
    for (const LabeledTree& tree : id_trees) {
      for (size_t n = 0; n < tree.size(); ++n) {
        const auto id = static_cast<xsdf::xml::NodeId>(n);
        BuildXmlIdSphere(tree, id, kRadius, /*exclude_tokens=*/false,
                         &sphere);
        vector.Assign(sphere);
        resolved.Assign(space, vector);
        sum += 1.0;
      }
    }
    return sum;
  });
  results.push_back(resolve_stage);

  // parse -> vector end to end: the acceptance headline. Both paths
  // start from the XML text and end with one context vector per node.
  StageResult e2e_stage{"parse_to_vector"};
  e2e_stage.baseline_ns = TimeStage(rounds, &checksum, [&] {
    double sum = 0.0;
    for (const std::string& xml : corpus) {
      auto doc = xsdf::oracles::ParseDom(xml);
      if (!doc.ok()) continue;
      auto tree = BuildTreeBaseline(*doc, network);
      if (!tree.ok()) continue;
      for (size_t n = 0; n < tree->size(); ++n) {
        ContextVector vector(BuildXmlSphere(
            *tree, static_cast<xsdf::xml::NodeId>(n), kRadius));
        sum += SumVector(vector);
      }
    }
    return sum;
  });
  e2e_stage.fast_ns = TimeStage(rounds, &checksum, [&] {
    double sum = 0.0;
    xsdf::core::IdSphere sphere;
    IdContextVector vector;
    for (const std::string& xml : corpus) {
      auto tree = xsdf::core::BuildTreeStreaming(xml, network, {}, true,
                                                 &space, &tree_cache);
      if (!tree.ok()) continue;
      for (size_t n = 0; n < tree->size(); ++n) {
        BuildXmlIdSphere(*tree, static_cast<xsdf::xml::NodeId>(n), kRadius,
                         /*exclude_tokens=*/false, &sphere);
        vector.Assign(sphere);
        sum += SumVector(vector);
      }
    }
    return sum;
  });
  results.push_back(e2e_stage);

  GiantDocResult giant = RunGiantDocSection(network);

  std::printf(
      "%zu docs, %zu nodes, best of %d rounds (checksum %.6f)\n",
      docs.size(), total_nodes, rounds, checksum);
  std::printf("parse (DOM, baseline only): %.1f us/corpus\n",
              parse_ns / 1000.0);
  std::printf("%-16s %15s %15s %9s\n", "stage", "baseline us",
              "id-path us", "speedup");
  for (const StageResult& r : results) {
    std::printf("%-16s %15.1f %15.1f %8.2fx\n", r.name.c_str(),
                r.baseline_ns / 1000.0, r.fast_ns / 1000.0, r.speedup());
  }
  std::printf(
      "giant doc (%zu bytes): streaming build %.1f ms (scaffold peak "
      "%zu bytes, %.2f%% of doc), DOM build %.1f ms\n",
      giant.frontend_doc_bytes, giant.streaming_build_us / 1000.0,
      giant.scaffold_peak_bytes, giant.scaffold_pct_of_doc,
      giant.dom_build_us / 1000.0);
  std::printf(
      "giant engine (%zu bytes): 1t %.1f ms, 8t %.1f ms "
      "(%.2fx, %.3f docs/s, %llu steals)\n",
      giant.engine_doc_bytes, giant.engine_1t_us / 1000.0,
      giant.engine_8t_us / 1000.0, giant.speedup_8t_vs_1t,
      giant.docs_per_s_8t,
      static_cast<unsigned long long>(giant.subtree_steals));

  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(json, "{\n  \"docs\": %zu,\n", docs.size());
  std::fprintf(json, "  \"nodes\": %zu,\n", total_nodes);
  std::fprintf(json, "  \"rounds\": %d,\n", rounds);
  xsdf::bench::WriteBenchEnvFields(json);
  std::fprintf(json, "  \"parse_us\": %.1f,\n", parse_ns / 1000.0);
  std::fprintf(json, "  \"stages\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const StageResult& r = results[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"baseline_us\": %.1f, "
                 "\"id_path_us\": %.1f, \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.baseline_ns / 1000.0,
                 r.fast_ns / 1000.0, r.speedup(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  // The 8t-vs-1t speedup is only meaningful on multi-core hardware;
  // the single_core_warning env field above flags degenerate runs.
  std::fprintf(json, "  \"giant_doc\": {\n");
  std::fprintf(json, "    \"frontend_doc_bytes\": %zu,\n",
               giant.frontend_doc_bytes);
  std::fprintf(json, "    \"streaming_build_us\": %.1f,\n",
               giant.streaming_build_us);
  std::fprintf(json, "    \"dom_build_us\": %.1f,\n", giant.dom_build_us);
  std::fprintf(json, "    \"scaffold_peak_bytes\": %zu,\n",
               giant.scaffold_peak_bytes);
  std::fprintf(json, "    \"scaffold_pct_of_doc\": %.3f,\n",
               giant.scaffold_pct_of_doc);
  std::fprintf(json, "    \"engine_doc_bytes\": %zu,\n",
               giant.engine_doc_bytes);
  std::fprintf(json, "    \"engine_1t_us\": %.1f,\n", giant.engine_1t_us);
  std::fprintf(json, "    \"engine_8t_us\": %.1f,\n", giant.engine_8t_us);
  std::fprintf(json, "    \"speedup_8t_vs_1t\": %.2f,\n",
               giant.speedup_8t_vs_1t);
  std::fprintf(json, "    \"docs_per_s_8t\": %.3f,\n", giant.docs_per_s_8t);
  std::fprintf(json, "    \"subtree_steals\": %llu\n",
               static_cast<unsigned long long>(giant.subtree_steals));
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::printf("results written to %s\n", json_path);
  return 0;
}
