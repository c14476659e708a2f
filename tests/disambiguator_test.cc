// End-to-end tests of the XSDF pipeline (paper Figure 3): the Figure 1
// running example, options behavior, compound assignment, semantic
// tree serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/decision_memo.h"
#include "core/disambiguator.h"
#include "core/node_query.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "obs/metrics.h"
#include "oracles/dom.h"
#include "wordnet/mini_wordnet.h"
#include "xml/parser.h"

namespace xsdf::core {
namespace {

using wordnet::SemanticNetwork;

const SemanticNetwork& Network() {
  static const SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

const char* kFigure1Doc1 = R"(<?xml version="1.0"?>
<films>
  <picture title="Rear Window">
    <director>Hitchcock</director>
    <year>1954</year>
    <genre>mystery</genre>
    <cast><star>Stewart</star><star>Kelly</star></cast>
    <plot>A wheelchair bound photographer spies on his neighbors</plot>
  </picture>
</films>)";

/// Assignment for the first node with this label, or nullptr.
const SenseAssignment* FindByLabel(const SemanticTree& result,
                                   const std::string& label) {
  for (xml::NodeId id : result.tree.ids()) {
    if (result.tree.label(id) != label) continue;
    if (const SenseAssignment* found = result.assignments.find(id)) {
      return found;
    }
  }
  return nullptr;
}

/// `xml` built into a tree `system` reads (interned through its space).
Result<xml::LabeledTree> TreeFor(const Disambiguator& system,
                                 const char* xml) {
  return BuildTreeStreaming(xml, Network(), xml::ParseOptions{},
                            system.options().include_values,
                            system.label_space());
}

std::string AssignedLabel(const SemanticTree& result,
                          const std::string& label) {
  const SenseAssignment* assignment = FindByLabel(result, label);
  if (assignment == nullptr) return "<none>";
  return Network().GetConcept(assignment->sense.primary).label();
}

TEST(DisambiguatorTest, PaperHeadlineExample) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The paper's motivating claim: in this context "Kelly" refers to
  // Grace Kelly, not Emmet (clown) or Gene (dancer).
  EXPECT_EQ(AssignedLabel(*result, "kelly"), "grace_kelly");
  EXPECT_EQ(AssignedLabel(*result, "stewart"), "james_stewart");
  EXPECT_EQ(AssignedLabel(*result, "hitchcock"), "alfred_hitchcock");
  // Structure labels.
  EXPECT_EQ(AssignedLabel(*result, "star"), "star");
  const SenseAssignment* star = FindByLabel(*result, "star");
  ASSERT_NE(star, nullptr);
  EXPECT_EQ(Network().GetConcept(star->sense.primary).gloss,
            "an actor who plays a principal role");
}

TEST(DisambiguatorTest, MonosemousNodesScoreOne) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok());
  const SenseAssignment* wheelchair = FindByLabel(*result, "wheelchair");
  ASSERT_NE(wheelchair, nullptr);
  EXPECT_EQ(wheelchair->candidate_count, 1);
  EXPECT_DOUBLE_EQ(wheelchair->score, 1.0);
}

TEST(DisambiguatorTest, CompoundTagGetsSensePair) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(
      "<movies><movie><MovieStar>Kelly</MovieStar></movie></movies>");
  ASSERT_TRUE(result.ok());
  const SenseAssignment* compound = FindByLabel(*result, "movie_star");
  ASSERT_NE(compound, nullptr);
  EXPECT_TRUE(compound->sense.is_compound());
  // The primary token "movie" resolves among movie senses.
  EXPECT_EQ(Network().GetConcept(compound->sense.primary).pos,
            wordnet::PartOfSpeech::kNoun);
}

TEST(DisambiguatorTest, CollocationTagResolvesAsOneConcept) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(
      "<actor><FirstName>Grace</FirstName></actor>");
  ASSERT_TRUE(result.ok());
  const SenseAssignment* first_name = FindByLabel(*result, "first_name");
  ASSERT_NE(first_name, nullptr);
  EXPECT_FALSE(first_name->sense.is_compound());
  EXPECT_EQ(Network().GetConcept(first_name->sense.primary).label(),
            "first_name");
}

TEST(DisambiguatorTest, ThresholdLimitsTargets) {
  DisambiguatorOptions all;
  DisambiguatorOptions selective;
  selective.ambiguity_threshold = 0.05;
  Disambiguator system_all(&Network(), all);
  Disambiguator system_selective(&Network(), selective);
  auto result_all = system_all.RunOnXml(kFigure1Doc1);
  auto result_selective = system_selective.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result_all.ok());
  ASSERT_TRUE(result_selective.ok());
  EXPECT_LT(result_selective->assignments.size(),
            result_all->assignments.size());
}

TEST(DisambiguatorTest, StructureOnlyDropsTokens) {
  DisambiguatorOptions options;
  options.include_values = false;
  Disambiguator system(&Network(), options);
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok());
  for (xml::NodeId id : result->tree.ids()) {
    EXPECT_NE(result->tree.kind(id), xml::TreeNodeKind::kToken);
  }
  EXPECT_EQ(FindByLabel(*result, "kelly"), nullptr);
}

TEST(DisambiguatorTest, ProcessesProduceDifferentScores) {
  DisambiguatorOptions concept_options;
  concept_options.process = DisambiguationProcess::kConceptBased;
  DisambiguatorOptions context_options;
  context_options.process = DisambiguationProcess::kContextBased;
  LabelSpace space(&Network());
  concept_options.label_space = &space;
  context_options.label_space = &space;
  Disambiguator concept_system(&Network(), concept_options);
  Disambiguator context_system(&Network(), context_options);
  auto tree = BuildTreeStreaming(kFigure1Doc1, Network(), xml::ParseOptions{},
                                 true, &space);
  ASSERT_TRUE(tree.ok());
  // Find the "cast" node.
  xml::NodeId cast = xml::kInvalidNode;
  for (xml::NodeId id : tree->ids()) {
    if (tree->label(id) == "cast") cast = id;
  }
  ASSERT_NE(cast, xml::kInvalidNode);
  auto concept_audit = concept_system.ExplainNode(*tree, cast);
  auto context_audit = context_system.ExplainNode(*tree, cast);
  ASSERT_TRUE(concept_audit.ok()) << concept_audit.status().ToString();
  ASSERT_TRUE(context_audit.ok()) << context_audit.status().ToString();
  ASSERT_EQ(concept_audit->candidates.size(),
            context_audit->candidates.size());
  bool any_different = false;
  for (size_t i = 0; i < concept_audit->candidates.size(); ++i) {
    if (std::abs(concept_audit->candidates[i].total -
                 context_audit->candidates[i].total) > 1e-9) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(DisambiguatorTest, CombinedProcessBlends) {
  DisambiguatorOptions options;
  options.process = DisambiguationProcess::kCombined;
  options.combination_weights = {0.5, 0.5};
  Disambiguator system(&Network(), options);
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->assignments.empty());
}

TEST(DisambiguatorTest, DisambiguateNodeErrorsOnSenselessLabel) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, "<zzunknownzz/>");
  ASSERT_TRUE(tree.ok());
  auto assignment = system.DisambiguateNode(*tree, 0);
  ASSERT_FALSE(assignment.ok());
  EXPECT_EQ(assignment.status().code(), StatusCode::kNotFound);
}

// Label ids are only comparable within one LabelSpace: read through
// another space, an out-of-vocabulary label's id names a different
// label, or none at all. Every entry point that can report the mix-up
// rejects such a tree instead of disambiguating it.
TEST(DisambiguatorTest, RejectsTreeFromAnotherLabelSpace) {
  const char* doc =
      "<films><movie_star>Kelly</movie_star><picture><cast>"
      "<star>Stewart</star></cast></picture></films>";
  LabelSpace other(&Network());
  for (const char* label : {"aa_one", "aa_two", "aa_three"}) {
    other.Resolve(label);
  }
  auto foreign = BuildTreeStreaming(doc, Network(), xml::ParseOptions{}, true,
                                    &other);
  ASSERT_TRUE(foreign.ok());
  Disambiguator system(&Network());
  for (const char* label : {"aa_one", "aa_two", "aa_three", "aa_four"}) {
    system.label_space()->Resolve(label);
  }
  auto result = system.RunOnTree(*foreign);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(system.DisambiguateNode(*foreign, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(system.ExplainNode(*foreign, 1).status().code(),
            StatusCode::kInvalidArgument);

  // The same document interned through the disambiguator's own space
  // disambiguates every sense-bearing node.
  auto own = TreeFor(system, doc);
  ASSERT_TRUE(own.ok());
  auto accepted = system.RunOnTree(*own);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted->assignments.size(), 7u);
}

// Node ids index the tree's columns, so an id outside [0, size()) is
// rejected before any column is read.
TEST(DisambiguatorTest, RejectsNodeIdOutsideTheTree) {
  // Instrumented, so that DisambiguateTargets counts its memo lookups.
  obs::MetricsRegistry registry;
  DisambiguatorOptions options;
  options.metrics = &registry;
  Disambiguator system(&Network(), options);
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  for (const xml::NodeId id :
       {xml::NodeId{-1}, static_cast<xml::NodeId>(tree->size())}) {
    EXPECT_EQ(system.DisambiguateNode(*tree, id).status().code(),
              StatusCode::kInvalidArgument)
        << id;
    // One bad id in a list decides none of the list's targets.
    std::vector<xml::NodeId> targets = system.SelectTargets(*tree);
    ASSERT_FALSE(targets.empty());
    targets.push_back(id);
    AssignmentColumn column;
    column.Reset(tree->size());
    Disambiguator::StageTimes times;
    EXPECT_EQ(
        system.DisambiguateTargets(*tree, targets, &column, &times).code(),
        StatusCode::kInvalidArgument)
        << id;
    EXPECT_EQ(times.memo_lookups, 0u);
    column.Recount();
    EXPECT_TRUE(column.empty());
    EXPECT_EQ(system.ExplainNode(*tree, id).status().code(),
              StatusCode::kInvalidArgument)
        << id;
  }
  // The last node is inside.
  const auto last = static_cast<xml::NodeId>(tree->size() - 1);
  EXPECT_NE(system.DisambiguateNode(*tree, last).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DisambiguatorTest, MalformedXmlPropagatesError) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml("<broken>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// Amb_Deg selects targets and is not part of an assignment; the audit
// reports it.
TEST(DisambiguatorTest, AmbiguityReportedByTheAudit) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok());
  const SenseAssignment* cast = FindByLabel(*result, "cast");
  ASSERT_NE(cast, nullptr);
  EXPECT_GT(cast->candidate_count, 1);
  auto audit = system.ExplainNode(result->tree, cast->node);
  ASSERT_TRUE(audit.ok());
  EXPECT_GT(audit->ambiguity, 0.0);
}

TEST(SemanticTreeXmlTest, SerializesAnnotations) {
  Disambiguator system(&Network());
  auto result = system.RunOnXml(kFigure1Doc1);
  ASSERT_TRUE(result.ok());
  std::string xml_out = SemanticTreeToXml(*result, Network());
  // The output parses back and carries concept annotations.
  auto reparsed = oracles::ParseDom(xml_out);
  ASSERT_TRUE(reparsed.ok()) << xml_out.substr(0, 400);
  EXPECT_NE(xml_out.find("concept=\"grace_kelly\""), std::string::npos);
  EXPECT_NE(xml_out.find("kind=\"token\""), std::string::npos);
  EXPECT_NE(xml_out.find("gloss="), std::string::npos);
}

// =================== ExplainNode audit trail ======================

/// The bucket counts of the per-node histograms a decision records in
/// `registry` (selection records core.node_ambiguity_pct).
std::vector<std::vector<uint64_t>> NodeHistogramCounts(
    const obs::MetricsRegistry& registry) {
  std::vector<std::vector<uint64_t>> counts;
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (const char* name :
       {"core.node_top2_margin_milli", "core.node_candidates"}) {
    counts.emplace_back();
    for (const obs::HistogramSnapshot& h : snapshot.histograms) {
      if (h.name == name) counts.back() = h.counts;
    }
  }
  return counts;
}

/// `after - before`, bucket by bucket.
std::vector<std::vector<uint64_t>> CountsAdded(
    const std::vector<std::vector<uint64_t>>& before,
    std::vector<std::vector<uint64_t>> after) {
  for (size_t h = 0; h < after.size(); ++h) {
    for (size_t b = 0; b < after[h].size(); ++b) {
      after[h][b] -= b < before[h].size() ? before[h][b] : 0;
    }
  }
  return after;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One node's first-pass DisambiguateNode result.
struct FirstPass {
  const xml::LabeledTree* tree = nullptr;
  xml::NodeId id = xml::kInvalidNode;
  Result<SenseAssignment> assignment;
};

/// Runs every node of `docs` through DisambiguateNode and then again
/// through DisambiguateTargets, on one Disambiguator configured by
/// `options` (its metrics registry is attached here), in windows that
/// end before its decision memo would clear: the second pass over a
/// window must be answered entirely by the memo, record the same
/// per-node histogram buckets as the first, and repeat the first's
/// results bit for bit, which must also equal ExplainNode's (which
/// always computes). The audit's Amb_Deg must be selection's.
void ExpectMemoizedDecisionsMatchExplain(
    DisambiguatorOptions options,
    const std::vector<datasets::GeneratedDocument>& docs,
    const std::string& what) {
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  Disambiguator system(&Network(), options);
  std::vector<xml::LabeledTree> trees;
  for (const datasets::GeneratedDocument& doc : docs) {
    auto tree = BuildTreeStreaming(doc.xml, Network(), xml::ParseOptions{},
                                   options.include_values,
                                   system.label_space());
    ASSERT_TRUE(tree.ok()) << doc.name;
    trees.push_back(std::move(tree).value());
  }
  // A shadow memo fed the same keys tells where the real one clears.
  DecisionMemo shadow;
  IdSphere sphere;
  std::vector<uint32_t> key;
  std::vector<FirstPass> window;
  uint64_t second_pass_lookups = 0;
  auto before = NodeHistogramCounts(registry);
  AssignmentColumn column;
  std::vector<xml::NodeId> run;
  auto finish_window = [&] {
    const auto after_first = NodeHistogramCounts(registry);
    // The second pass: each tree's run of the window in one list.
    Disambiguator::StageTimes second;
    std::vector<std::optional<SenseAssignment>> again;
    for (size_t begin = 0; begin < window.size();) {
      const xml::LabeledTree& tree = *window[begin].tree;
      run.clear();
      size_t end = begin;
      for (; end < window.size() && window[end].tree == &tree; ++end) {
        run.push_back(window[end].id);
      }
      column.Reset(tree.size());
      ASSERT_TRUE(
          system.DisambiguateTargets(tree, run, &column, &second).ok());
      for (; begin < end; ++begin) {
        const SenseAssignment* assigned = column.find(window[begin].id);
        again.push_back(assigned != nullptr
                            ? std::optional<SenseAssignment>(*assigned)
                            : std::nullopt);
      }
    }
    EXPECT_EQ(second.memo_hits, second.memo_lookups) << what;
    second_pass_lookups += second.memo_lookups;
    EXPECT_EQ(CountsAdded(after_first, NodeHistogramCounts(registry)),
              CountsAdded(before, after_first))
        << what;
    for (size_t i = 0; i < window.size(); ++i) {
      const FirstPass& first = window[i];
      const auto audit = system.ExplainNode(*first.tree, first.id);
      ASSERT_EQ(again[i].has_value(), first.assignment.ok());
      ASSERT_EQ(audit.ok(), first.assignment.ok());
      if (!first.assignment.ok()) continue;
      const SenseAssignment& a = *first.assignment;
      const CandidateAudit& chosen =
          audit->candidates[static_cast<size_t>(audit->chosen_index)];
      for (const auto& [sense, score, source] :
           {std::tuple(again[i]->sense, again[i]->score, "second pass"),
            std::tuple(chosen.sense, chosen.total, "explain")}) {
        EXPECT_TRUE(sense == a.sense && SameBits(score, a.score))
            << what << ": " << source << " differs at node " << first.id
            << " (" << first.tree->label(first.id) << ")";
      }
      const double polysemy =
          system.label_space()->Senses(first.tree->label_id(first.id))
              .polysemy;
      EXPECT_TRUE(SameBits(audit->ambiguity,
                           AmbiguityDegree(*first.tree, first.id, polysemy,
                                           options.ambiguity_weights)))
          << what << ": explain's Amb_Deg differs at node " << first.id;
    }
    window.clear();
    before = NodeHistogramCounts(registry);
  };
  for (const xml::LabeledTree& tree : trees) {
    for (xml::NodeId id : tree.ids()) {
      const LabelSenses& senses =
          system.label_space()->Senses(tree.label_id(id));
      if (senses.candidates.size() > 1) {
        BuildXmlIdSphere(tree, id, options.sphere_radius,
                         options.structure_only_context, &sphere);
        DecisionMemo::KeyOf(sphere, &key);
        const uint64_t hash = DecisionMemo::Hash(key);
        if (!shadow.Find(hash, key)) {
          const size_t held = shadow.size();
          shadow.Insert(hash, key, {});
          ASSERT_TRUE(shadow.Find(hash, key)) << "key not stored";
          if (shadow.size() <= held) finish_window();
        }
      }
      window.push_back({&tree, id, system.DisambiguateNode(tree, id)});
    }
  }
  finish_window();
  EXPECT_GT(second_pass_lookups, 0u) << what;
}

TEST(ExplainNodeTest, ReproducesDisambiguateNodeExactly) {
  // The acceptance bar for `xsdf explain`: on every node the audit's
  // chosen sense and score are byte-identical to what the batch
  // pipeline assigns, and its ambiguity to the degree selection
  // computes — audit capture must not perturb the floating-point
  // accumulation, and a decision the memo answers must be exactly the
  // one scoring computes.
  Disambiguator system(&Network());
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  size_t audited = 0;
  for (xml::NodeId id : tree->ids()) {
    auto assignment = system.DisambiguateNode(*tree, id);
    auto audit = system.ExplainNode(*tree, id);
    ASSERT_EQ(assignment.ok(), audit.ok()) << tree->label(id);
    if (!assignment.ok()) continue;
    ++audited;
    ASSERT_GE(audit->chosen_index, 0) << tree->label(id);
    ASSERT_LT(static_cast<size_t>(audit->chosen_index),
              audit->candidates.size());
    const CandidateAudit& chosen =
        audit->candidates[static_cast<size_t>(audit->chosen_index)];
    EXPECT_EQ(chosen.sense.primary, assignment->sense.primary)
        << tree->label(id);
    EXPECT_EQ(chosen.sense.secondary, assignment->sense.secondary)
        << tree->label(id);
    EXPECT_EQ(chosen.total, assignment->score) << tree->label(id);  // bit-exact
    // Bit-exact to the degree selection computes.
    EXPECT_EQ(audit->ambiguity,
              AmbiguityDegree(
                  *tree, id,
                  system.label_space()->Senses(tree->label_id(id)).polysemy))
        << tree->label(id);
    EXPECT_EQ(audit->candidates.size(),
              static_cast<size_t>(assignment->candidate_count));
    EXPECT_EQ(audit->node, id);
    EXPECT_EQ(audit->label, tree->label(id));
  }
  EXPECT_GT(audited, 5u) << "expected several disambiguated nodes";

  // Every node of the generated corpus (as `xsdf gen-corpus` writes it)
  // and of a 256 KB giant document, under each process.
  std::vector<datasets::GeneratedDocument> docs;
  for (const auto* generator : datasets::AllDatasets()) {
    for (auto& doc : generator->Generate(42)) docs.push_back(std::move(doc));
  }
  for (auto& doc : datasets::Figure1Documents()) docs.push_back(doc);
  docs.push_back(datasets::GiantDocuments(1, 256u << 10, 1)[0]);
  struct Config {
    const char* name;
    DisambiguationProcess process;
    VectorSimilarity vector_similarity;
    bool structure_only;
  };
  for (const Config& config :
       {Config{"concept", DisambiguationProcess::kConceptBased,
               VectorSimilarity::kCosine, false},
        Config{"combined-cosine", DisambiguationProcess::kCombined,
               VectorSimilarity::kCosine, false},
        Config{"combined-jaccard", DisambiguationProcess::kCombined,
               VectorSimilarity::kJaccard, false},
        Config{"structure-only", DisambiguationProcess::kConceptBased,
               VectorSimilarity::kCosine, true}}) {
    for (int radius = 1; radius <= 3; ++radius) {
      DisambiguatorOptions options;
      options.sphere_radius = radius;
      options.process = config.process;
      options.combination_weights = {0.5, 0.5};
      options.vector_similarity = config.vector_similarity;
      options.structure_only_context = config.structure_only;
      ExpectMemoizedDecisionsMatchExplain(
          options, docs,
          std::string(config.name) + " radius " + std::to_string(radius));
    }
  }
}

TEST(ExplainNodeTest, MarginSeparatesTopTwoCandidates) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  for (xml::NodeId id : tree->ids()) {
    if (tree->label(id) != "star") continue;
    auto audit = system.ExplainNode(*tree, id);
    ASSERT_TRUE(audit.ok());
    ASSERT_GT(audit->candidates.size(), 1u);
    EXPECT_GT(audit->margin, 0.0);
    const CandidateAudit& chosen =
        audit->candidates[static_cast<size_t>(audit->chosen_index)];
    // margin = chosen.total - best runner-up, so no other candidate
    // may come closer than the reported margin.
    for (size_t i = 0; i < audit->candidates.size(); ++i) {
      if (static_cast<int>(i) == audit->chosen_index) continue;
      EXPECT_LE(audit->candidates[i].total + audit->margin,
                chosen.total + 1e-12);
    }
    break;
  }
}

TEST(ExplainNodeTest, SingleCandidateAuditsAsScoreOne) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  for (xml::NodeId id : tree->ids()) {
    if (tree->label(id) != "wheelchair") continue;
    auto audit = system.ExplainNode(*tree, id);
    ASSERT_TRUE(audit.ok());
    ASSERT_EQ(audit->candidates.size(), 1u);
    EXPECT_EQ(audit->chosen_index, 0);
    EXPECT_DOUBLE_EQ(audit->candidates[0].total, 1.0);
    EXPECT_DOUBLE_EQ(audit->margin, 0.0);
    break;
  }
}

TEST(ResolveNodeQueryTest, NumericQueriesAddressOneNodeOrNone) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  const auto last = static_cast<xml::NodeId>(tree->size() - 1);
  EXPECT_EQ(ResolveNodeQuery(*tree, "0"), std::vector<xml::NodeId>{0});
  EXPECT_EQ(ResolveNodeQuery(*tree, "007"), std::vector<xml::NodeId>{7});
  EXPECT_EQ(ResolveNodeQuery(*tree, std::to_string(last)),
            std::vector<xml::NodeId>{last});
  // Past the last id, past INT_MAX (which atoi wrapped onto small ids)
  // and past uint64_t, a number matches nothing.
  for (const char* miss :
       {"4294967296", "4294967297", "2147483648", "18446744073709551616",
        "99999999999999999999999"}) {
    EXPECT_TRUE(ResolveNodeQuery(*tree, miss).empty()) << miss;
  }
  EXPECT_TRUE(
      ResolveNodeQuery(*tree, std::to_string(tree->size())).empty());
}

TEST(ResolveNodeQueryTest, PathQueriesMatchRawOrLabelSuffixes) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  const std::vector<xml::NodeId> stars = ResolveNodeQuery(*tree, "cast/star");
  ASSERT_EQ(stars.size(), 2u);
  for (xml::NodeId id : stars) EXPECT_EQ(tree->label(id), "star");
  EXPECT_EQ(ResolveNodeQuery(*tree, "/films"), std::vector<xml::NodeId>{0});
  EXPECT_TRUE(ResolveNodeQuery(*tree, "/star").empty());
}

TEST(ExplainNodeTest, SenselessLabelReturnsNotFound) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, "<zzunknownzz/>");
  ASSERT_TRUE(tree.ok());
  auto audit = system.ExplainNode(*tree, 0);
  ASSERT_FALSE(audit.ok());
  EXPECT_EQ(audit.status().code(), StatusCode::kNotFound);
}

TEST(ExplainNodeTest, JsonRenderingCarriesTheDecomposition) {
  Disambiguator system(&Network());
  auto tree = TreeFor(system, kFigure1Doc1);
  ASSERT_TRUE(tree.ok());
  for (xml::NodeId id : tree->ids()) {
    if (tree->label(id) != "star") continue;
    auto audit = system.ExplainNode(*tree, id);
    ASSERT_TRUE(audit.ok());
    std::string json = NodeAuditToJson(*audit, Network());
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"label\":\"star\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"concept_score\":"), std::string::npos);
    EXPECT_NE(json.find("\"context_score\":"), std::string::npos);
    EXPECT_NE(json.find("\"prior\":"), std::string::npos);
    EXPECT_NE(json.find("\"chosen\":{"), std::string::npos);
    EXPECT_NE(json.find("\"margin\":"), std::string::npos);
    EXPECT_NE(json.find("an actor who plays a principal role"),
              std::string::npos)
        << "chosen gloss missing";
    break;
  }
}

TEST(SemanticTreeXmlTest, Figure1SecondDocumentCompounds) {
  auto docs = datasets::Figure1Documents();
  ASSERT_EQ(docs.size(), 2u);
  Disambiguator system(&Network());
  auto result = system.RunOnXml(docs[1].xml);
  ASSERT_TRUE(result.ok());
  // directed_by (compound, "by" removed as stop word -> "direct")
  // and first_name/last_name collocations all get assignments.
  EXPECT_NE(FindByLabel(*result, "first_name"), nullptr);
  EXPECT_NE(FindByLabel(*result, "last_name"), nullptr);
  EXPECT_EQ(AssignedLabel(*result, "kelly"), "grace_kelly");
}

// ======================== Decision memo ==========================

/// The sphere of (label id, distance) members, center first.
IdSphere SphereOf(
    std::initializer_list<std::pair<uint32_t, int32_t>> members) {
  IdSphere sphere;
  sphere.radius = 2;
  for (const auto& [label_id, distance] : members) {
    sphere.push_back(label_id, distance);
  }
  return sphere;
}

TEST(DecisionMemoTest, KeysTellDistancesApart) {
  // The same labels in the same order, one member a ring further out:
  // its weight differs, so the keys must too.
  std::vector<uint32_t> near;
  std::vector<uint32_t> far;
  DecisionMemo::KeyOf(SphereOf({{7, 0}, {8, 1}, {9, 1}}), &near);
  DecisionMemo::KeyOf(SphereOf({{7, 0}, {8, 1}, {9, 2}}), &far);
  EXPECT_NE(near, far);
  std::vector<uint32_t> other_center;
  DecisionMemo::KeyOf(SphereOf({{8, 0}, {7, 1}, {9, 1}}), &other_center);
  EXPECT_NE(near, other_center);
  std::vector<uint32_t> again;
  DecisionMemo::KeyOf(SphereOf({{7, 0}, {8, 1}, {9, 1}}), &again);
  EXPECT_EQ(near, again);
  EXPECT_EQ(DecisionMemo::Hash(near), DecisionMemo::Hash(again));
}

TEST(DecisionMemoTest, KeysUnderOneHashDoNotAlias) {
  DecisionMemo memo;
  const std::vector<uint32_t> a = {1, 2, 3};
  const std::vector<uint32_t> b = {1, 2, 4};
  const std::vector<uint32_t> shorter = {1, 2};
  constexpr uint64_t kHash = 12345;
  EXPECT_FALSE(memo.Find(kHash, a));  // nothing allocated yet
  memo.Insert(kHash, a, {1, 0.5, 0.25});
  EXPECT_FALSE(memo.Find(kHash, b));
  EXPECT_FALSE(memo.Find(kHash, shorter));
  memo.Insert(kHash, b, {2, 0.75, 0.125});
  const std::optional<Decision> found_a = memo.Find(kHash, a);
  const std::optional<Decision> found_b = memo.Find(kHash, b);
  ASSERT_TRUE(found_a);
  ASSERT_TRUE(found_b);
  EXPECT_EQ(found_a->chosen, 1u);
  EXPECT_EQ(found_a->score, 0.5);
  EXPECT_EQ(found_a->margin, 0.25);
  EXPECT_EQ(found_b->chosen, 2u);
  EXPECT_EQ(found_b->score, 0.75);
  EXPECT_EQ(found_b->margin, 0.125);
  EXPECT_FALSE(memo.Find(kHash + 1, a));
  EXPECT_EQ(memo.size(), 2u);
}

TEST(DecisionMemoTest, ClearsWhenFullAndStaysRight) {
  // Distinct keys, each with a decision derived from it; `width` words
  // per key fills the slot table (narrow keys) or the arena (wide
  // ones) first. Every answer is the inserted one or none.
  for (const size_t width : {size_t{2}, DecisionMemo::kKeyWords / 64}) {
    DecisionMemo memo;
    auto key_of = [width](uint32_t k) {
      std::vector<uint32_t> key(width, k);
      key.back() = ~k;
      return key;
    };
    auto decision_of = [](uint32_t k) {
      return Decision{k % 5, 1.0 / (k + 1), 0.5 / (k + 1)};
    };
    const uint32_t total = static_cast<uint32_t>(DecisionMemo::kSlots);
    size_t high_water = 0;
    for (uint32_t k = 0; k < total; ++k) {
      const std::vector<uint32_t> key = key_of(k);
      const uint64_t hash = DecisionMemo::Hash(key);
      ASSERT_FALSE(memo.Find(hash, key)) << width << " " << k;
      memo.Insert(hash, key, decision_of(k));
      const std::optional<Decision> found = memo.Find(hash, key);
      ASSERT_TRUE(found) << width << " " << k;
      EXPECT_EQ(found->chosen, decision_of(k).chosen);
      EXPECT_EQ(found->score, decision_of(k).score);
      EXPECT_EQ(found->margin, decision_of(k).margin);
      high_water = std::max(high_water, memo.size());
    }
    EXPECT_LT(memo.size(), total) << "the memo never cleared";
    EXPECT_LE(high_water, DecisionMemo::kSlots / 2);
    size_t answered = 0;
    for (uint32_t k = 0; k < total; ++k) {
      const std::vector<uint32_t> key = key_of(k);
      if (const auto found = memo.Find(DecisionMemo::Hash(key), key)) {
        ++answered;
        EXPECT_EQ(found->chosen, decision_of(k).chosen);
        EXPECT_EQ(found->score, decision_of(k).score);
      }
    }
    EXPECT_EQ(answered, memo.size());
    EXPECT_FALSE(memo.Find(DecisionMemo::Hash(key_of(0)), key_of(0)));
  }
}

TEST(DecisionMemoTest, KeyLargerThanTheArenaIsNotStored) {
  // An entry takes its key's words plus one for the chosen index.
  DecisionMemo memo;
  const std::vector<uint32_t> fits(DecisionMemo::kKeyWords - 1, 3);
  const std::vector<uint32_t> too_large(DecisionMemo::kKeyWords, 3);
  memo.Insert(DecisionMemo::Hash(too_large), too_large, {1, 1.0, 0.5});
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(memo.Find(DecisionMemo::Hash(too_large), too_large));
  memo.Insert(DecisionMemo::Hash(fits), fits, {1, 1.0, 0.5});
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_TRUE(memo.Find(DecisionMemo::Hash(fits), fits));
  // Storing the over-size key again leaves the stored one alone.
  memo.Insert(DecisionMemo::Hash(too_large), too_large, {1, 1.0, 0.5});
  EXPECT_TRUE(memo.Find(DecisionMemo::Hash(fits), fits));
}

}  // namespace
}  // namespace xsdf::core
