// Allocation gate for the per-target decision. The Disambiguator class
// comment promises that deciding a target allocates nothing once its
// buffers and memos have grown. This binary replaces the global
// operator new with a counting one, warms one Disambiguator with a
// first DisambiguateNode pass over every selected target of a corpus,
// and holds a second, identical pass to zero allocations.
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
  core::Disambiguator system(&Network());
  ASSERT_EQ(system.options().process,
            core::DisambiguationProcess::kConceptBased);
  std::vector<std::string> docs;
  for (const auto* generator : datasets::AllDatasets()) {
    for (const auto& doc : generator->Generate(/*seed=*/7)) {
      docs.push_back(doc.xml);
    }
  }
  docs.push_back(datasets::GiantDocuments(1, 256u << 10, 7)[0].xml);

  struct Target {
    const xml::LabeledTree* tree;
    xml::NodeId id;
    core::SenseAssignment cold;
  };
  std::vector<xml::LabeledTree> trees;
  trees.reserve(docs.size());
  for (const std::string& xml : docs) {
    auto tree = core::BuildTreeStreaming(xml, Network(), xml::ParseOptions{},
                                         system.options().include_values,
                                         system.label_space());
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    trees.push_back(std::move(tree).value());
  }
  // The cold pass: fills the label space, the term memo, the decision
  // memo and the scratch buffers.
  std::vector<Target> targets;
  for (const xml::LabeledTree& tree : trees) {
    for (xml::NodeId id : system.SelectTargets(tree)) {
      auto assignment = system.DisambiguateNode(tree, id);
      ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
      targets.push_back({&tree, id, *assignment});
    }
  }
  ASSERT_GT(targets.size(), 20000u);

  // The warm pass: the same targets in the same order.
  size_t differing = 0;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const Target& target : targets) {
    auto assignment = system.DisambiguateNode(*target.tree, target.id);
    if (!assignment.ok() || !(assignment->sense == target.cold.sense) ||
        assignment->score != target.cold.score) {
      ++differing;
    }
  }
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocations, 0u) << "over " << targets.size() << " targets";
  EXPECT_EQ(differing, 0u);
}

}  // namespace
}  // namespace xsdf
