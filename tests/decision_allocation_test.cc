// Allocation gate for the per-target decision. The Disambiguator class
// comment promises that deciding a target allocates nothing once its
// buffers and memos have grown. This binary replaces the global
// operator new with a counting one, warms a Disambiguator with a first
// DisambiguateTargets pass over each tree's selected targets, and holds
// a second, identical pass to zero allocations: once on a plain
// Disambiguator, and once with a metrics registry attached, whose
// per-target histogram records and whole-loop clock reads must not
// allocate either.
//
// Out of scope: the context-based process (and the combined one)
// builds a concept sphere and its context vector per candidate
// (IdContextScore), which allocates by design, so the gate runs the
// default concept-based process only.
//
// Under ASan, TSan or MSan the sanitizer runtime defines operator new
// itself (a statically linked runtime would clash with a second
// definition), so a sanitized build compiles no replacement and skips
// the gate; the plain and Release builds run it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/disambiguator.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "obs/metrics.h"
#include "wordnet/mini_wordnet.h"
#include "xml/parser.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XSDF_SANITIZER_OWNS_NEW 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define XSDF_SANITIZER_OWNS_NEW 1
#endif
#endif

namespace {

std::atomic<uint64_t> g_allocations{0};

#ifndef XSDF_SANITIZER_OWNS_NEW
void* CountedAllocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
#endif

}  // namespace

#ifndef XSDF_SANITIZER_OWNS_NEW
void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace xsdf {
namespace {

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

TEST(DecisionAllocationTest, WarmPassOverEveryTargetAllocatesNothing) {
#ifdef XSDF_SANITIZER_OWNS_NEW
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
  std::vector<std::string> docs;
  for (const auto* generator : datasets::AllDatasets()) {
    for (const auto& doc : generator->Generate(/*seed=*/7)) {
      docs.push_back(doc.xml);
    }
  }
  docs.push_back(datasets::GiantDocuments(1, 256u << 10, 7)[0].xml);

  obs::MetricsRegistry registry;
  core::DisambiguatorOptions instrumented;
  instrumented.metrics = &registry;
  for (const core::DisambiguatorOptions& options :
       {core::DisambiguatorOptions(), instrumented}) {
    SCOPED_TRACE(options.metrics != nullptr ? "metrics registry attached"
                                            : "plain");
    core::Disambiguator system(&Network(), options);
    ASSERT_EQ(system.options().process,
              core::DisambiguationProcess::kConceptBased);
    // Trees, target lists and columns exist before the count starts.
    struct Document {
      xml::LabeledTree tree;
      std::vector<xml::NodeId> targets;
      core::AssignmentColumn cold;
      core::AssignmentColumn warm;
    };
    std::vector<Document> documents;
    documents.reserve(docs.size());
    size_t target_count = 0;
    for (const std::string& xml : docs) {
      auto tree = core::BuildTreeStreaming(
          xml, Network(), xml::ParseOptions{},
          system.options().include_values, system.label_space());
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      Document& doc = documents.emplace_back();
      doc.tree = std::move(tree).value();
      doc.targets = system.SelectTargets(doc.tree);
      doc.cold.Reset(doc.tree.size());
      doc.warm.Reset(doc.tree.size());
      target_count += doc.targets.size();
    }
    ASSERT_GT(target_count, 20000u);

    // The cold pass: fills the label space, the term memo, the decision
    // memo and the scratch buffers.
    core::Disambiguator::StageTimes times;
    for (Document& doc : documents) {
      const Status status =
          system.DisambiguateTargets(doc.tree, doc.targets, &doc.cold, &times);
      ASSERT_TRUE(status.ok()) << status.ToString();
    }

    // The warm pass: the same lists in the same order.
    times = {};
    size_t failed = 0;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (Document& doc : documents) {
      failed += !system
                     .DisambiguateTargets(doc.tree, doc.targets, &doc.warm,
                                          &times)
                     .ok();
    }
    const uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocations, 0u) << "over " << target_count << " targets";
    EXPECT_EQ(failed, 0u);
    // Instrumented, the loop read the clock and probed the memo.
    EXPECT_EQ(times.context_ns > 0, options.metrics != nullptr);
    EXPECT_EQ(times.memo_lookups > 0, options.metrics != nullptr);

    size_t differing = 0;
    for (const Document& doc : documents) {
      for (xml::NodeId id : doc.targets) {
        const core::SenseAssignment* cold = doc.cold.find(id);
        const core::SenseAssignment* warm = doc.warm.find(id);
        if (cold == nullptr || warm == nullptr ||
            !(warm->sense == cold->sense) || warm->score != cold->score) {
          ++differing;
        }
      }
    }
    EXPECT_EQ(differing, 0u);
  }
}

}  // namespace
}  // namespace xsdf
