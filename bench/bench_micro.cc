// Micro-benchmarks (google-benchmark) for the hot paths of the XSDF
// stack: XML parsing, tree construction, WNDB round trip, taxonomy
// utilities, similarity measures, sphere/vector construction, and
// per-node disambiguation as a function of context radius.

#include <benchmark/benchmark.h>

#include <optional>

#include "core/ambiguity.h"
#include "core/context_vector.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/scores.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "sim/combined.h"
#include "wordnet/mini_wordnet.h"
#include "wordnet/wndb.h"
#include "xml/parser.h"

namespace {

const xsdf::wordnet::SemanticNetwork& Network() {
  static const auto* network = [] {
    auto result = xsdf::wordnet::BuildMiniWordNet();
    return new xsdf::wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

const std::string& ShakespeareXml() {
  static const std::string* xml = [] {
    auto docs = xsdf::datasets::AllDatasets()[0]->Generate(42);
    return new std::string(docs[0].xml);
  }();
  return *xml;
}

/// The label id space the benchmark trees are interned through; a
/// disambiguator reading their ids must resolve through it too.
xsdf::core::LabelSpace& Space() {
  static auto* space = new xsdf::core::LabelSpace(&Network());
  return *space;
}

const xsdf::xml::LabeledTree& ShakespeareTree() {
  static const auto* tree = [] {
    auto result = xsdf::core::BuildTreeStreaming(ShakespeareXml(), Network(),
                                                 xsdf::xml::ParseOptions{},
                                                 /*include_values=*/true,
                                                 &Space());
    return new xsdf::xml::LabeledTree(std::move(result).value());
  }();
  return *tree;
}

void BM_XmlParse(benchmark::State& state) {
  const std::string& xml = ShakespeareXml();
  for (auto _ : state) {
    auto doc = xsdf::xml::Parse(xml);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_XmlParse);

/// The front end: parse + tree build in one streaming pass.
void BM_TreeBuild(benchmark::State& state) {
  const std::string& xml = ShakespeareXml();
  for (auto _ : state) {
    auto tree = xsdf::core::BuildTreeStreaming(xml, Network(),
                                               xsdf::xml::ParseOptions{},
                                               /*include_values=*/true,
                                               &Space());
    benchmark::DoNotOptimize(tree);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_TreeBuild);

void BM_WndbWrite(benchmark::State& state) {
  for (auto _ : state) {
    auto files = xsdf::wordnet::WriteWndb(Network());
    benchmark::DoNotOptimize(files);
  }
}
BENCHMARK(BM_WndbWrite);

void BM_WndbParse(benchmark::State& state) {
  auto files = xsdf::wordnet::WriteWndb(Network());
  for (auto _ : state) {
    auto network = xsdf::wordnet::ParseWndb(*files);
    benchmark::DoNotOptimize(network);
  }
}
BENCHMARK(BM_WndbParse);

void BM_SimilarityCombined(benchmark::State& state) {
  const auto& network = Network();
  xsdf::sim::CombinedMeasure measure;
  auto star = network.Senses("star");
  auto light = network.Senses("light");
  size_t i = 0;
  for (auto _ : state) {
    double sim = measure.Similarity(network, star[i % star.size()],
                                    light[i % light.size()]);
    benchmark::DoNotOptimize(sim);
    ++i;
  }
}
BENCHMARK(BM_SimilarityCombined);

void BM_BuildXmlIdSphere(benchmark::State& state) {
  const auto& tree = ShakespeareTree();
  int radius = static_cast<int>(state.range(0));
  xsdf::xml::NodeId center =
      static_cast<xsdf::xml::NodeId>(tree.size() / 2);
  // The disambiguator's pattern: one sphere and one vector, rebuilt
  // with their capacity kept.
  xsdf::core::IdSphere sphere;
  xsdf::core::IdContextVector vector;
  for (auto _ : state) {
    xsdf::core::BuildXmlIdSphere(tree, center, radius,
                                 /*exclude_tokens=*/false, &sphere);
    vector.Assign(sphere);
    benchmark::DoNotOptimize(vector);
  }
}
BENCHMARK(BM_BuildXmlIdSphere)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_AmbiguityDegree(benchmark::State& state) {
  const auto& tree = ShakespeareTree();
  for (auto _ : state) {
    double total = 0.0;
    for (xsdf::xml::NodeId id : tree.ids()) {
      total += xsdf::core::AmbiguityDegree(
          tree, id, Space().Senses(tree.label_id(id)).polysemy);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AmbiguityDegree);

// One Disambiguator across iterations: after the first, its decision
// memo answers every multi-candidate target (the warm path).
void BM_DisambiguateDocument(benchmark::State& state) {
  xsdf::core::DisambiguatorOptions options;
  options.sphere_radius = static_cast<int>(state.range(0));
  options.label_space = &Space();
  xsdf::core::Disambiguator system(&Network(), options);
  const auto& tree = ShakespeareTree();
  for (auto _ : state) {
    auto result = system.RunOnTree(tree);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tree.size()));
}
BENCHMARK(BM_DisambiguateDocument)->Arg(1)->Arg(2)->Arg(3);

// A fresh Disambiguator per iteration (constructed off the clock): every
// distinct sphere is scored once, the path a document of unseen
// neighbourhoods takes.
void BM_DisambiguateDocumentCold(benchmark::State& state) {
  xsdf::core::DisambiguatorOptions options;
  options.sphere_radius = static_cast<int>(state.range(0));
  options.label_space = &Space();
  const auto& tree = ShakespeareTree();
  for (auto _ : state) {
    state.PauseTiming();
    std::optional<xsdf::core::Disambiguator> system;
    system.emplace(&Network(), options);
    state.ResumeTiming();
    auto result = system->RunOnTree(tree);
    benchmark::DoNotOptimize(result);
    state.PauseTiming();
    system.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tree.size()));
}
BENCHMARK(BM_DisambiguateDocumentCold)->Arg(1)->Arg(2)->Arg(3);

void BM_ContextBasedScore(benchmark::State& state) {
  const auto& network = Network();
  auto senses = network.Senses("star");
  const auto& tree = ShakespeareTree();
  xsdf::core::IdContextVector vector(
      xsdf::core::BuildXmlIdSphere(tree, 5, 2));
  for (auto _ : state) {
    double score = xsdf::core::IdContextScore(
        network, {senses[0], xsdf::wordnet::kInvalidConcept}, vector, 2);
    benchmark::DoNotOptimize(score);
  }
}
BENCHMARK(BM_ContextBasedScore);

}  // namespace

BENCHMARK_MAIN();
