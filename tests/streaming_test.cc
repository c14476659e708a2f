// Streaming front-end identity tests: the production front end
// (core::BuildTreeStreaming) must be indistinguishable from the DOM
// reference (oracles::ParseDom + the oracles::BuildTreeViaDom walk) — same
// nodes, same labels, same interned ids — over arbitrary generated
// documents; the engine must produce byte-identical batch output to
// that reference disambiguated by Disambiguator::RunOnTree at any
// worker count; and the intra-document subtree work stealing must
// never change a byte. Malformed, truncated, and over-budget giant
// inputs must fail with a Status, never a crash.
// Over the same generated corpus, the id-native target selection must
// agree with the string reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "core/tree_builder.h"
#include "datasets/generator.h"
#include "obs/metrics.h"
#include "oracles/dom.h"
#include "oracles/dom_tree_builder.h"
#include "oracles/string_pipeline.h"
#include "prop/generators.h"
#include "runtime/engine.h"
#include "wordnet/mini_wordnet.h"
#include "xml/labeled_tree.h"
#include "xml/parser.h"

namespace xsdf {
namespace {

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

/// Identity of two labeled trees column by column — label id,
/// spelling, raw text, kind, parent, depth and child order. The label
/// ids encode interning *order*, so their equality proves the two
/// builds resolved labels in the same sequence.
void ExpectTreesIdentical(const xml::LabeledTree& dom,
                          const xml::LabeledTree& streaming,
                          const std::string& context) {
  ASSERT_EQ(dom.size(), streaming.size()) << context;
  for (xml::NodeId id : dom.ids()) {
    ASSERT_EQ(dom.label_id(id), streaming.label_id(id))
        << context << " node " << id;
    ASSERT_EQ(dom.label(id), streaming.label(id)) << context << " node " << id;
    ASSERT_EQ(dom.raw(id), streaming.raw(id)) << context << " node " << id;
    ASSERT_EQ(dom.kind(id), streaming.kind(id)) << context << " node " << id;
    ASSERT_EQ(dom.parent(id), streaming.parent(id))
        << context << " node " << id;
    ASSERT_EQ(dom.depth(id), streaming.depth(id))
        << context << " node " << id;
    ASSERT_TRUE(std::ranges::equal(dom.children(id), streaming.children(id)))
        << context << " node " << id;
  }
  EXPECT_TRUE(dom.Validate().ok()) << context;
  EXPECT_TRUE(streaming.Validate().ok()) << context;
}

/// The 500 generated documents the identity properties run over.
const std::vector<std::string>& PropgenCorpus() {
  static const std::vector<std::string>* corpus = [] {
    Rng rng(20260807);
    propgen::XmlGenOptions gen;
    gen.max_depth = 6;
    gen.max_children = 5;
    auto* docs = new std::vector<std::string>();
    for (int i = 0; i < 500; ++i) {
      docs->push_back(propgen::GenerateXmlDocument(rng, gen));
    }
    return docs;
  }();
  return *corpus;
}

// The core identity property, driven over 500 generated documents:
// for every well-formed input, BuildTreeStreaming produces exactly the
// tree the DOM walk reads off Parse's document — same preorder, same
// labels, same raws, same kinds, and (under independent LabelSpaces)
// the same interned ids, which proves the interning order is
// reproduced too.
TEST(StreamingBuilderTest, MatchesDomBuildOnGeneratedCorpus) {
  int skipped = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string& xml_text = PropgenCorpus()[static_cast<size_t>(i)];
    auto doc = oracles::ParseDom(xml_text);
    ASSERT_TRUE(doc.ok()) << "doc " << i << ": " << doc.status().ToString();

    core::LabelSpace dom_space(&Network());
    core::TreeBuildCache dom_cache;
    auto dom_tree = oracles::BuildTreeViaDom(*doc, Network(),
                                             /*include_values=*/true,
                                             &dom_space, &dom_cache);

    core::LabelSpace streaming_space(&Network());
    core::TreeBuildCache streaming_cache;
    auto streaming_tree = core::BuildTreeStreaming(
        xml_text, Network(), xml::ParseOptions{}, /*include_values=*/true,
        &streaming_space, &streaming_cache);

    // Both paths must agree even on rejection (e.g. a document whose
    // root is only whitespace text builds no tree).
    ASSERT_EQ(dom_tree.ok(), streaming_tree.ok())
        << "doc " << i << ": dom=" << dom_tree.status().ToString()
        << " streaming=" << streaming_tree.status().ToString();
    if (!dom_tree.ok()) {
      ++skipped;
      continue;
    }
    ExpectTreesIdentical(*dom_tree, *streaming_tree,
                         "doc " + std::to_string(i));
  }
  // The generator overwhelmingly produces buildable documents; if most
  // were skipped the property above tested nothing.
  EXPECT_LT(skipped, 50);
}

// Structure-only mode (include_values = false) must agree too — the
// token-suppression logic lives in different places on the two paths.
TEST(StreamingBuilderTest, MatchesDomBuildWithoutValues) {
  Rng rng(7);
  propgen::XmlGenOptions gen;
  for (int i = 0; i < 50; ++i) {
    const std::string xml_text = propgen::GenerateXmlDocument(rng, gen);
    auto doc = oracles::ParseDom(xml_text);
    ASSERT_TRUE(doc.ok());
    core::LabelSpace dom_space(&Network());
    auto dom_tree = oracles::BuildTreeViaDom(*doc, Network(),
                                             /*include_values=*/false,
                                             &dom_space);
    core::LabelSpace streaming_space(&Network());
    auto streaming_tree = core::BuildTreeStreaming(
        xml_text, Network(), xml::ParseOptions{}, /*include_values=*/false,
        &streaming_space);
    ASSERT_EQ(dom_tree.ok(), streaming_tree.ok()) << "doc " << i;
    if (!dom_tree.ok()) continue;
    ExpectTreesIdentical(*dom_tree, *streaming_tree,
                         "doc " + std::to_string(i));
  }
}

// Malformed and over-budget inputs: both front ends must return the
// failure as a Status (and agree on failing), never crash.
TEST(StreamingBuilderTest, MalformedAndOverBudgetInputsFailCleanly) {
  auto giant =
      datasets::GiantDocuments(/*count=*/1, /*target_bytes=*/64u << 10,
                               /*seed=*/1);
  ASSERT_EQ(giant.size(), 1u);
  const std::string& whole = giant[0].xml;
  core::LabelSpace space(&Network());
  auto stream = [&](const std::string& text,
                    const xml::ParseOptions& options) {
    return core::BuildTreeStreaming(text, Network(), options,
                                    /*include_values=*/true, &space);
  };

  // Truncation at several byte offsets: mid-tag, mid-text, mid-close.
  for (size_t cut : {whole.size() / 7, whole.size() / 3, whole.size() - 9}) {
    const std::string truncated = whole.substr(0, cut);
    EXPECT_FALSE(stream(truncated, xml::ParseOptions{}).ok())
        << "cut at " << cut;
    auto doc = oracles::ParseDom(truncated);
    EXPECT_FALSE(doc.ok()) << "cut at " << cut;
  }

  // Budget violations surface as OutOfRange on both paths.
  xml::ParseOptions tight;
  tight.limits.max_input_bytes = 1024;
  EXPECT_FALSE(stream(whole, tight).ok());
  EXPECT_FALSE(oracles::ParseDom(whole, tight).ok());
  xml::ParseOptions shallow;
  shallow.limits.max_depth = 4;
  EXPECT_FALSE(stream(whole, shallow).ok());
  EXPECT_FALSE(oracles::ParseDom(whole, shallow).ok());

  // The well-formed original passes both, for contrast.
  EXPECT_TRUE(stream(whole, xml::ParseOptions{}).ok());
}

// Nothing on the front end recurses per nesting level: a million-deep
// chain builds its tree under a raised cap, and the default cap turns
// it away with OutOfRange — a Status either way, never a stack
// overflow (the recursive-descent parser this replaced crashed near
// 30,000 levels in Release and 2,000 under ASan).
TEST(StreamingBuilderTest, MillionDeepChainBuildsOrHitsItsLimit) {
  constexpr int kDepth = 1000000;
  std::string chain;
  chain.reserve(7u * kDepth);
  for (int d = 0; d < kDepth; ++d) chain += "<a>";
  for (int d = 0; d < kDepth; ++d) chain += "</a>";
  core::LabelSpace space(&Network());
  xml::ParseOptions raised;
  raised.limits.max_depth = kDepth;
  auto tree = core::BuildTreeStreaming(chain, Network(), raised,
                                       /*include_values=*/true, &space);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_EQ(tree->size(), static_cast<size_t>(kDepth));
  EXPECT_EQ(tree->depth(static_cast<xml::NodeId>(kDepth - 1)), kDepth - 1);
  EXPECT_EQ(tree->MaxDepth(), kDepth - 1);
  auto capped = core::BuildTreeStreaming(chain, Network(), xml::ParseOptions{},
                                         /*include_values=*/true, &space);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kOutOfRange)
      << capped.status().ToString();
}

// Streaming reports bounded scaffolding: on a document dominated by
// wide/deep repetition the transient builder state must stay far below
// the DOM's footprint (the bounded-peak-memory claim, asserted
// end-to-end by the giant-doc CI job; this is the in-process version).
TEST(StreamingBuilderTest, ScaffoldingStaysSmall) {
  auto giant = datasets::GiantDocuments(1, /*target_bytes=*/1u << 20, 3);
  core::LabelSpace space(&Network());
  core::StreamingBuildStats stats;
  auto tree = core::BuildTreeStreaming(giant[0].xml, Network(),
                                       xml::ParseOptions{}, true, &space,
                                       nullptr, &stats);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(stats.scaffold_peak_bytes, 0u);
  // < 25% of the document beyond the input buffer; in practice the
  // scaffold is a few KB regardless of document size.
  EXPECT_LT(stats.scaffold_peak_bytes, giant[0].xml.size() / 4);
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Letterless tokens never reach the token memo: a resident worker fed
// 10^5 elements, each with a distinct letterless text value and
// attribute value (numbers, dates, punctuation), keeps `cache.tokens`
// at its size, and a tree built through that cache afterwards equals,
// ids included, one built through a fresh cache.
TEST(StreamingBuilderTest, LetterlessValuesLeaveTheTokenMemoAlone) {
  const std::string xml_text = datasets::Figure1Documents()[0].xml;
  core::LabelSpace space(&Network());
  core::TreeBuildCache cache;
  ASSERT_TRUE(core::BuildTreeStreaming(xml_text, Network(), xml::ParseOptions{},
                                       /*include_values=*/true, &space, &cache)
                  .ok());
  const size_t tokens = cache.tokens.size();
  ASSERT_GT(tokens, 0u);
  std::string values = "<values>";
  for (size_t i = 0; i < 100000; ++i) {
    values += "<v n=\"#" + std::to_string(7 * i) + "\">" + std::to_string(i) +
              ", " + std::to_string(i % 97) + "-" + std::to_string(i / 3) +
              " (12.5%)</v>";
  }
  values += "</values>";
  auto letterless = core::BuildTreeStreaming(
      values, Network(), xml::ParseOptions{}, /*include_values=*/true, &space,
      &cache);
  ASSERT_TRUE(letterless.ok()) << letterless.status().ToString();
  EXPECT_EQ(letterless->size(), 1u + 2 * 100000);  // no token nodes
  EXPECT_EQ(cache.tokens.size(), tokens);
  auto after = core::BuildTreeStreaming(
      xml_text, Network(), xml::ParseOptions{}, /*include_values=*/true,
      &space, &cache);
  core::TreeBuildCache fresh_cache;
  auto fresh = core::BuildTreeStreaming(xml_text, Network(),
                                        xml::ParseOptions{},
                                        /*include_values=*/true, &space,
                                        &fresh_cache);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(fresh.ok());
  ExpectTreesIdentical(*fresh, *after, "after 10^5 letterless values");
}

// Stop words are memoized as skip entries: probed once, never a node,
// never interned.
TEST(StreamingBuilderTest, StopWordsAreSkipEntries) {
  core::LabelSpace space(&Network());
  core::TreeBuildCache cache;
  auto tree = core::BuildTreeStreaming(
      "<a>The film and THE cast</a>", Network(), xml::ParseOptions{},
      /*include_values=*/true, &space, &cache);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->size(), 3u);
  EXPECT_EQ(tree->label(1), "film");
  EXPECT_EQ(tree->label(2), "cast");
  for (const char* stop_word : {"the", "and"}) {
    auto it = cache.tokens.find(std::string_view(stop_word));
    ASSERT_NE(it, cache.tokens.end()) << stop_word;
    EXPECT_TRUE(it->second.label.empty()) << stop_word;
    EXPECT_EQ(it->second.id, xml::kNoLabelId) << stop_word;
  }
  EXPECT_EQ(cache.tokens.size(), 4u);
}

// Id-native target selection must be the string reference in disguise:
// Disambiguator::SelectTargets picks exactly the string oracle's
// SelectTargetNodes() nodes, and every target's assignment.ambiguity is
// bit-equal to the oracle's AmbiguityDegree() — under default and
// non-default weights and thresholds, over the generated corpus (whose
// suffixed tags make out-of-vocabulary compound labels, i.e. overflow
// ids) plus one giant document.
TEST(IdSelectionTest, MatchesStringReferenceOnGeneratedCorpus) {
  std::vector<std::string> docs = PropgenCorpus();
  docs.push_back(datasets::GiantDocuments(1, 256u << 10, 2)[0].xml);
  struct Config {
    core::AmbiguityWeights weights;
    double threshold;
  };
  const Config configs[] = {
      {{}, 0.0},
      {{}, 0.12},
      {{0.6, 0.3, 0.8}, 0.05},
      {{1.0, 0.0, 0.5}, 0.3},
  };
  core::LabelSpace space(&Network());
  size_t targets = 0;
  size_t overflow_targets = 0;
  for (const Config& config : configs) {
    core::DisambiguatorOptions options;
    options.ambiguity_weights = config.weights;
    options.ambiguity_threshold = config.threshold;
    // Radius 1 keeps the per-target scoring (which only has to run for
    // the ambiguity check) fast.
    options.sphere_radius = 1;
    options.label_space = &space;
    const core::Disambiguator system(&Network(), options);
    for (size_t i = 0; i < docs.size(); ++i) {
      const std::string context = "doc " + std::to_string(i) +
                                  " threshold " +
                                  std::to_string(config.threshold);
      auto doc = oracles::ParseDom(docs[i]);
      ASSERT_TRUE(doc.ok()) << context;
      auto tree = oracles::BuildTreeViaDom(*doc, Network(), true, &space);
      if (!tree.ok()) continue;

      const std::vector<xml::NodeId> expected = oracles::SelectTargetNodes(
          *tree, Network(), config.threshold, config.weights);
      ASSERT_EQ(system.SelectTargets(*tree), expected) << context;
      for (xml::NodeId id : expected) {
        ++targets;
        if (tree->label_id(id) >= space.network_size()) ++overflow_targets;
        const double reference =
            oracles::AmbiguityDegree(*tree, id, Network(), config.weights);
        auto assignment = system.DisambiguateNode(*tree, id);
        ASSERT_TRUE(assignment.ok()) << context << " node " << id;
        ASSERT_EQ(Bits(assignment->ambiguity), Bits(reference))
            << context << " node " << id;
      }
    }
  }
  EXPECT_GT(targets, 10000u);
  EXPECT_GT(overflow_targets, 100u);
}

std::vector<runtime::DocumentJob> CorpusJobs() {
  std::vector<runtime::DocumentJob> jobs;
  for (const auto* generator : datasets::AllDatasets()) {
    for (auto& doc : generator->Generate(99)) {
      jobs.push_back({0, doc.name, std::move(doc.xml)});
    }
  }
  return jobs;
}

std::vector<std::string> RunEngine(const runtime::EngineOptions& options,
                                   const std::vector<runtime::DocumentJob>& jobs,
                                   runtime::EngineStats* stats = nullptr) {
  runtime::DisambiguationEngine engine(&Network(), options);
  std::vector<std::string> output;
  for (const auto& result : engine.RunBatch(jobs)) {
    EXPECT_TRUE(result.ok) << result.name << ": " << result.error;
    output.push_back(result.semantic_xml);
  }
  if (stats != nullptr) *stats = engine.stats();
  return output;
}

// Batch output must be byte-identical at every worker count to the
// DOM reference: xml::Parse + the oracle walk + RunOnTree, serialized,
// is the bit-identity reference for the engine's streaming front end.
TEST(StreamingEngineTest, EngineMatchesDomLibraryPathAtAnyWorkerCount) {
  std::vector<runtime::DocumentJob> jobs = CorpusJobs();
  const core::Disambiguator disambiguator(&Network());
  std::vector<std::string> reference;
  for (const runtime::DocumentJob& job : jobs) {
    auto doc = oracles::ParseDom(job.xml);
    ASSERT_TRUE(doc.ok()) << job.name;
    auto tree = oracles::BuildTreeViaDom(*doc, Network(),
                                         /*include_values=*/true,
                                         disambiguator.label_space());
    ASSERT_TRUE(tree.ok()) << job.name;
    auto semantic_tree = disambiguator.RunOnTree(std::move(tree).value());
    ASSERT_TRUE(semantic_tree.ok()) << job.name;
    reference.push_back(core::SemanticTreeToXml(*semantic_tree, Network()));
  }
  for (int threads : {1, 8}) {
    runtime::EngineOptions options;
    options.threads = threads;
    std::vector<std::string> output = RunEngine(options, jobs);
    ASSERT_EQ(output.size(), reference.size());
    for (size_t i = 0; i < output.size(); ++i) {
      ASSERT_EQ(output[i], reference[i])
          << jobs[i].name << " threads=" << threads;
    }
  }
}

// The work-stealing fan-out itself: a multi-MB giant document run with
// 8 workers must produce exactly the bytes the 1-worker (serial) run
// produces, and the 8-worker engine must actually have taken the
// chunked path (subtree_parallel_docs > 0).
TEST(StreamingEngineTest, SubtreeStealingPreservesBytesOnGiantDocument) {
  auto giant = datasets::GiantDocuments(1, /*target_bytes=*/2u << 20, 11);
  std::vector<runtime::DocumentJob> jobs;
  jobs.push_back({0, giant[0].name, std::move(giant[0].xml)});

  runtime::EngineOptions solo;
  solo.threads = 1;
  // Radius 1 keeps the giant-doc disambiguation fast; identity only
  // needs both runs configured the same.
  solo.disambiguator.sphere_radius = 1;
  std::vector<std::string> solo_output = RunEngine(solo, jobs);

  runtime::EngineOptions pool = solo;
  pool.threads = 8;
  runtime::EngineStats stats;
  std::vector<std::string> pool_output = RunEngine(pool, jobs, &stats);

  ASSERT_EQ(solo_output.size(), 1u);
  ASSERT_EQ(pool_output.size(), 1u);
  EXPECT_EQ(solo_output[0], pool_output[0]);
  EXPECT_GT(stats.subtree_parallel_docs, 0u);
  EXPECT_GT(stats.frontend_peak_bytes, 0u);
}

// Oversized / truncated giant inputs through the full engine: a failed
// document is a DocumentResult error, never a crash — and the
// parse_limits plumbing (the --max-input-bytes / --max-depth flags)
// actually reaches the parser.
TEST(StreamingEngineTest, GiantBudgetViolationsFailPerDocument) {
  auto giant = datasets::GiantDocuments(1, /*target_bytes=*/256u << 10, 5);
  runtime::EngineOptions options;
  options.threads = 2;
  options.parse_limits.max_input_bytes = 4096;
  runtime::DisambiguationEngine engine(&Network(), options);
  std::vector<runtime::DocumentJob> jobs;
  jobs.push_back({0, "oversized", giant[0].xml});
  jobs.push_back({0, "truncated",
                  giant[0].xml.substr(0, giant[0].xml.size() / 2)});
  jobs.push_back({0, "tiny-ok", "<films><star>Kelly</star></films>"});
  auto results = engine.RunBatch(std::move(jobs));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[2].ok) << results[2].error;
  runtime::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.failures, 2u);
}

// The new observability gauges surface through PublishStatsToMetrics.
TEST(StreamingEngineTest, PublishesFrontendAndStealGauges) {
  obs::MetricsRegistry metrics;
  runtime::EngineOptions options;
  options.threads = 2;
  options.metrics = &metrics;
  runtime::DisambiguationEngine engine(&Network(), options);
  std::vector<runtime::DocumentJob> jobs;
  jobs.push_back({0, "doc", "<films><star>Kelly</star></films>"});
  for (const auto& result : engine.RunBatch(std::move(jobs))) {
    ASSERT_TRUE(result.ok) << result.error;
  }
  engine.PublishStatsToMetrics();
  EXPECT_GT(metrics.GetGauge("frontend.arena_peak_bytes")->Value(), 0);
  EXPECT_GE(metrics.GetGauge("engine.subtree_steals")->Value(), 0);
  EXPECT_EQ(metrics.GetGauge("engine.subtree_queue_depth")->Value(), 0);
}

}  // namespace
}  // namespace xsdf
