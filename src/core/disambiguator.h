#ifndef XSDF_CORE_DISAMBIGUATOR_H_
#define XSDF_CORE_DISAMBIGUATOR_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_id_map.h"
#include "common/result.h"
#include "core/ambiguity.h"
#include "core/context_vector.h"
#include "core/decision_memo.h"
#include "core/label_space.h"
#include "core/scores.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/combined.h"
#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

/// Which disambiguation process to run (paper §3.5). kCombined blends
/// both per Eq. 13 using the combination weights.
enum class DisambiguationProcess { kConceptBased, kContextBased, kCombined };

/// Benchmark-only leftovers, never consulted by the pipeline: every
/// target reads its candidates by reference from
/// LabelSpace::Senses(label_id).candidates, and no production path
/// constructs a SenseInventory. They stay compiled only because the
/// benchmark program (perfbench/) still names them; delete them with
/// DisambiguatorOptions::sense_inventory and runtime::SenseInventoryCache
/// when the benchmark is ported (ROADMAP item 2).
///
/// A label's candidate list, handed out shared.
struct SenseEntry {
  std::vector<SenseCandidate> candidates;
};

/// A provider of SenseEntry values keyed by label id (see above).
class SenseInventory {
 public:
  virtual ~SenseInventory() = default;

  /// The candidate entry of the label interned under `label_id` in
  /// `space`, equal to space.Senses(label_id).candidates; never null.
  virtual std::shared_ptr<const SenseEntry> Entry(LabelSpace& space,
                                                  uint32_t label_id) = 0;
};

/// Everything the user can tune (the paper's Motivation 4): ambiguity
/// weights + selection threshold, sphere radius (context size), the
/// semantic similarity measure composition, and the process
/// combination.
struct DisambiguatorOptions {
  /// Node selection (paper §3.3).
  AmbiguityWeights ambiguity_weights;
  double ambiguity_threshold = 0.0;

  /// Context size: the sphere neighborhood radius d (paper §3.4).
  int sphere_radius = 2;

  /// Semantic similarity combination (Definition 9): the registry
  /// measure composition (the `--measures` flag). When non-empty it
  /// must be valid (MeasureConfig::Validate() OK — the CLI guarantees
  /// this by going through MeasureConfig::Parse); when empty the paper
  /// hybrid (equal thirds) is used. Always read it through
  /// EffectiveMeasureConfig() so the measure the disambiguator builds,
  /// the fingerprint the engine keys its similarity cache on, and the
  /// spec string serve reports can never disagree.
  sim::MeasureConfig measure_config;

  /// The composition actually in effect under the rule above.
  sim::MeasureConfig EffectiveMeasureConfig() const {
    return measure_config.empty() ? sim::MeasureConfig::PaperHybrid()
                                  : measure_config;
  }

  /// Disambiguation process and, for kCombined, its weights (Eq. 13).
  DisambiguationProcess process = DisambiguationProcess::kConceptBased;
  CombinationWeights combination_weights;

  /// Vector comparison used by the context-based process (paper
  /// footnote 10: cosine by default, Jaccard as an alternative).
  VectorSimilarity vector_similarity = VectorSimilarity::kCosine;

  /// Structure-and-content (true) vs structure-only (false).
  bool include_values = true;

  /// Ablation switch: build spheres from structural nodes only,
  /// ignoring content tokens (disables the paper's
  /// structure-and-content context integration).
  bool structure_only_context = false;

  /// Ablation switch: treat the sphere context as a plain bag of words
  /// (uniform structural proximity), as prior approaches do.
  bool bag_of_words_context = false;

  /// The label id space shared with the tree builder (non-owning;
  /// optional). Without one the disambiguator owns a private space —
  /// fine standalone, but an engine whose workers disambiguate trees
  /// other workers built installs one shared space, so ids agree
  /// across threads and each label's senses resolve once.
  LabelSpace* label_space = nullptr;

  /// Weight of the most-frequent-sense prior drawn from the weighted
  /// network SN-bar (the concept frequencies of paper Figure 2).
  /// Candidate scores receive + prior * freq(c)/max_freq(candidates),
  /// resolving low-signal contexts toward the corpus-dominant sense —
  /// the standard knowledge-based WSD backoff. 0 disables it.
  double frequency_prior = 0.15;

  /// Non-owning shared pair cache (optional; installed by the runtime
  /// engine): memoizes the combined measure's concept-pair values,
  /// which it computes only on a label-term memo miss. It may be
  /// shared across many Disambiguator instances/threads, in which case
  /// it must be thread-safe. It never changes results — only where
  /// memoized values live.
  sim::SimilarityCacheHook* similarity_cache = nullptr;
  /// Never read: a benchmark-only leftover (see SenseInventory).
  SenseInventory* sense_inventory = nullptr;

  /// Optional observability sinks (non-owning; both may be shared
  /// across Disambiguator instances — they are internally
  /// thread-safe). `metrics` receives the per-stage latency histograms
  /// (stage.select_us / stage.context_us / stage.score_us, recorded
  /// per document) and the per-node distributions (ambiguity degree,
  /// candidate count, top-2 score margin). `trace` receives spans for
  /// the select stage and for every disambiguated node. Instrumentation
  /// never changes results; with both null the pipeline does not even
  /// read the clock.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSession* trace = nullptr;
};

/// The sense assigned to one target node.
struct SenseAssignment {
  xml::NodeId node = xml::kInvalidNode;
  int candidate_count = 0;    ///< size of the sense inventory examined
  SenseCandidate sense;       ///< winning candidate
  double score = 0.0;         ///< its (combined) score
  double ambiguity = 0.0;     ///< the node's Amb_Deg
};

/// The sense assignments of one tree: a dense column indexed by node
/// id, whose unassigned slots carry `node == kInvalidNode`. Iteration
/// visits the assigned nodes in id order as (id, assignment) pairs;
/// ids past the column's end read as unassigned.
class AssignmentColumn {
 public:
  class const_iterator {
   public:
    using value_type = std::pair<xml::NodeId, const SenseAssignment&>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    const_iterator(const SenseAssignment* at, const SenseAssignment* end)
        : at_(at), end_(end) {
      SkipUnassigned();
    }
    value_type operator*() const { return {at_->node, *at_}; }
    const_iterator& operator++() {
      ++at_;
      SkipUnassigned();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) {
      return a.at_ == b.at_;
    }

   private:
    void SkipUnassigned() {
      while (at_ != end_ && at_->node == xml::kInvalidNode) ++at_;
    }
    const SenseAssignment* at_ = nullptr;
    const SenseAssignment* end_ = nullptr;
  };

  /// Sizes the column for a tree of `node_count` nodes, all unassigned.
  void Reset(size_t node_count) {
    slots_.assign(node_count, SenseAssignment());
    count_ = 0;
  }

  /// Stores `assignment` (its `node` set to `id`) unless `id` is
  /// already assigned, growing the column when `id` lies past its end.
  /// Returns whether it was stored.
  bool emplace(xml::NodeId id, SenseAssignment assignment) {
    if (id < 0) return false;
    const size_t i = static_cast<size_t>(id);
    if (i >= slots_.size()) slots_.resize(i + 1);
    if (slots_[i].node != xml::kInvalidNode) return false;
    assignment.node = id;
    slots_[i] = std::move(assignment);
    ++count_;
    return true;
  }

  /// The slot of `id` in a column Reset() to cover it. Writers may fill
  /// distinct slots concurrently (setting each one's `node` to its id);
  /// call Recount() once they are done.
  SenseAssignment& slot(xml::NodeId id) {
    return slots_[static_cast<size_t>(id)];
  }
  /// Recomputes size() after slot() writes.
  void Recount() {
    count_ = 0;
    for (const SenseAssignment& slot : slots_) {
      if (slot.node != xml::kInvalidNode) ++count_;
    }
  }

  /// The assignment of `id`, or null when it has none.
  const SenseAssignment* find(xml::NodeId id) const {
    if (id < 0 || static_cast<size_t>(id) >= slots_.size()) return nullptr;
    const SenseAssignment& slot = slots_[static_cast<size_t>(id)];
    return slot.node == xml::kInvalidNode ? nullptr : &slot;
  }

  /// Number of assigned nodes.
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

 private:
  std::vector<SenseAssignment> slots_;
  size_t count_ = 0;
};

/// Audit record of one candidate sense considered for a node: the raw
/// process components (before Eq. 13 weighting and prior smoothing)
/// plus the final score the argmax saw. With the frequency prior
/// active, `total` is the top-normalized weighted score plus `prior`;
/// without it, total = w_concept * concept_score + w_context *
/// context_score exactly as DisambiguateNode computed it.
struct CandidateAudit {
  SenseCandidate sense;
  double concept_score = 0.0;  ///< Concept_Score (Definition 8 / Eq. 10)
  double context_score = 0.0;  ///< Context_Score (Definition 10 / Eq. 12)
  double prior = 0.0;          ///< frequency-prior contribution
  double total = 0.0;          ///< final score used by the argmax
};

/// The full per-node disambiguation audit trail: every candidate with
/// its score decomposition, which one won, and by how much. Produced
/// by Disambiguator::ExplainNode(); the chosen sense is byte-identical
/// to what DisambiguateNode() assigns for the same tree and options.
struct NodeAudit {
  xml::NodeId node = xml::kInvalidNode;
  std::string label;           ///< preprocessed node label
  double ambiguity = 0.0;      ///< Amb_Deg of the node
  std::vector<CandidateAudit> candidates;
  int chosen_index = -1;       ///< into `candidates`
  double margin = 0.0;         ///< total(top1) - total(top2); 0 if single
};

/// The semantic XML tree: the input labeled tree plus a concept
/// assignment for every disambiguated target node (paper Figure 4's
/// output). Non-target nodes remain untouched.
struct SemanticTree {
  xml::LabeledTree tree;
  AssignmentColumn assignments;
};

/// The XSDF pipeline (paper Figure 3): linguistic pre-processing ->
/// ambiguous-node selection -> sphere context construction -> hybrid
/// disambiguation.
///
/// Every entry point reads label ids straight off the tree, so a tree
/// must have been built through label_space() (BuildTreeStreaming()
/// records the space as the tree's label_source()).
/// A tree from any other interner is rejected: RunOnTree,
/// DisambiguateNode and ExplainNode return InvalidArgument, while
/// SelectTargets returns an empty vector (and traps in checked
/// builds). The per-node entry points hold a node id to the same rule:
/// an id outside [0, tree.size()) is InvalidArgument.
///
/// A Disambiguator is used from one thread at a time: its entry points
/// are const but fill private memos (see LabelTermMemo and
/// DecisionMemo) and reuse private buffers for the sphere, its context
/// vector and the scores, so deciding a target allocates nothing once
/// they have grown. Concurrent callers each construct their own from
/// the same options, as the runtime engine's workers do; identically
/// configured instances produce identical bytes.
///
/// DisambiguateNode and RunOnTree decide each distinct sphere once:
/// a target whose ordered sphere this instance has already decided is
/// answered from its DecisionMemo, which holds exactly what scoring
/// would compute. ExplainNode never reads or writes it, so an audit
/// always shows computed scores.
class Disambiguator {
 public:
  /// `network` must outlive the disambiguator and have finalized
  /// frequencies.
  Disambiguator(const wordnet::SemanticNetwork* network,
                DisambiguatorOptions options = {});

  const DisambiguatorOptions& options() const { return options_; }

  /// The label space ids are resolved through (the installed one, or
  /// the private space created when none was). Internally
  /// synchronized; trees for this disambiguator are built through it.
  LabelSpace* label_space() const { return label_space_; }

  /// Runs the full pipeline on an XML string: BuildTreeStreaming()
  /// under default ParseOptions through label_space(), then
  /// RunOnTree(). Parse failures return the parser's Status.
  Result<SemanticTree> RunOnXml(const std::string& xml_text) const;

  /// Runs selection + disambiguation on an already-built tree.
  Result<SemanticTree> RunOnTree(xml::LabeledTree tree) const;

  /// The target nodes RunOnTree would disambiguate, in selection
  /// order, timed into stage.select_us: SelectTargetNodes() through
  /// label_space() under this disambiguator's threshold and weights.
  /// Exposed so the runtime engine can split the per-target
  /// DisambiguateNode() loop into stealable chunks across workers —
  /// DisambiguateNode is a pure function of (tree, id) for
  /// identically-configured disambiguators, so chunk placement never
  /// changes results.
  std::vector<xml::NodeId> SelectTargets(const xml::LabeledTree& tree) const;

  /// Disambiguates a single node of `tree`; returns the winning
  /// assignment, NotFound when the label has no candidate senses, or
  /// InvalidArgument when `id` is outside the tree.
  Result<SenseAssignment> DisambiguateNode(const xml::LabeledTree& tree,
                                           xml::NodeId id) const;

  /// Per-document accumulator for the stage.context_us and
  /// stage.score_us histograms and the decision-memo counters: context
  /// covers the sphere and the memo probe, plus on a miss the context
  /// vector and sense resolution; score covers a miss's candidate
  /// scoring loop (incl. the frequency prior). A hit adds no score
  /// time. Lookups count the multi-candidate targets, which probe the
  /// memo; hits count those it answered.
  struct StageTimes {
    uint64_t context_ns = 0;
    uint64_t score_ns = 0;
    uint64_t memo_lookups = 0;
    uint64_t memo_hits = 0;
  };

  /// True when a metrics registry is attached. Callers running the
  /// per-target loop themselves (the engine's chunked fan-out) pass a
  /// StageTimes only then, so an uninstrumented run never reads the
  /// clock.
  bool records_stage_times() const { return ins_.context_us != nullptr; }

  /// DisambiguateNode() that adds the node's context and score time to
  /// `times` (null: no timing). Results are identical either way.
  Result<SenseAssignment> DisambiguateNode(const xml::LabeledTree& tree,
                                           xml::NodeId id,
                                           StageTimes* times) const;

  /// Records one document's accumulated stage times as one sample per
  /// histogram, and adds its memo lookups and hits to the
  /// core.decision_memo_lookups / core.decision_memo_hits counters;
  /// no-op without a registry.
  void RecordStageTimes(const StageTimes& times) const;

  /// Disambiguates one node and returns the full audit trail: every
  /// candidate with its concept/context/prior score decomposition and
  /// the chosen index. The chosen sense and scores are byte-identical
  /// to DisambiguateNode() on the same tree — audit capture never
  /// perturbs the computation, and it always computes (the decision
  /// memo is neither read nor written). NotFound when the label is
  /// senseless, InvalidArgument when `id` is outside the tree.
  Result<NodeAudit> ExplainNode(const xml::LabeledTree& tree,
                                xml::NodeId id) const;

 private:
  /// Handles resolved once against options_.metrics (all null without
  /// a registry, making every record site a dead branch).
  struct Instruments {
    obs::Histogram* select_us = nullptr;
    obs::Histogram* context_us = nullptr;
    obs::Histogram* score_us = nullptr;
    obs::Histogram* node_ambiguity_pct = nullptr;
    obs::Histogram* node_candidates = nullptr;
    obs::Histogram* node_margin_milli = nullptr;
    obs::Counter* memo_lookups = nullptr;
    obs::Counter* memo_hits = nullptr;
  };

  /// The buffers one decision works in, reused target after target.
  struct Workspace {
    IdSphere sphere;
    IdContextVector vector;
    IdResolvedContext resolved;
    std::vector<double> concept_scores;
    std::vector<double> scores;
    std::vector<uint32_t> memo_key;
  };

  CombinationWeights EffectiveCombination() const;

  /// DisambiguateNode with optional stage-time accumulation and audit
  /// capture (both null on the plain path).
  Result<SenseAssignment> DisambiguateNodeImpl(const xml::LabeledTree& tree,
                                               xml::NodeId id,
                                               StageTimes* times,
                                               NodeAudit* audit) const;

  /// Scores the candidates of `label_id` (the center's label) against
  /// the sphere in work_.sphere into work_.scores, resolving the
  /// sphere context once for all candidates. Context time runs from
  /// `t_start` (the sphere build's start) when `times` is set.
  void ScoreSphere(uint32_t label_id,
                   std::span<const SenseCandidate> candidates,
                   StageTimes* times, uint64_t t_start,
                   NodeAudit* audit) const;

  const wordnet::SemanticNetwork* network_;
  DisambiguatorOptions options_;
  sim::CombinedMeasure measure_;
  /// Concept_Score's per-(context label, candidate) terms, valid for
  /// this instance's label space, network and measure, which never
  /// change after construction.
  mutable LabelTermMemo label_terms_;
  /// Sphere -> decision, read and written by DisambiguateNode and
  /// RunOnTree only.
  mutable DecisionMemo decisions_;
  mutable Workspace work_;
  Instruments ins_;
  /// Private space when options_.label_space was null.
  std::unique_ptr<LabelSpace> owned_label_space_;
  LabelSpace* label_space_ = nullptr;  ///< never null after construction
};

/// Renders a semantic tree as an annotated XML document: one element
/// per tree node carrying its label, kind, and — when disambiguated —
/// the assigned concept's label, id, and gloss. This is the
/// "semantically augmented XML tree" deliverable of the paper abstract.
/// The layout: an `<?xml version="1.0"?>` line, then a
/// <semantic_tree> root with one <node> element per line, nested as
/// the tree and indented two spaces per level, a childless node
/// self-closed as `<node .../>`. Indentation stops growing at the
/// deepest level a document within the default ParseLimits depth cap
/// can reach, so output stays linear in the tree's size under any cap.
/// The text is written straight into the returned string, with no DOM.
/// One-shot: a SemanticXmlWriter that lives for this call only.
std::string SemanticTreeToXml(const SemanticTree& semantic_tree,
                              const wordnet::SemanticNetwork& network);

/// The writer behind SemanticTreeToXml(), bound to one network and
/// kept across documents: it writes each tree in that function's
/// layout and bytes, whatever it wrote before.
///
/// A giant document carries a few thousand distinct labels and
/// concepts over hundreds of thousands of nodes, and a corpus repeats
/// the same concepts document after document. So the opening run
/// `<node label="..." kind="..."` of each (label, kind) is escaped once
/// per document, and each concept's ` concept="..." concept_id="..."
/// gloss="..."` run (and a compound second sense's ` concept2="..."
/// concept2_id="..."`) is built on its first use and kept for every
/// later document; a node's assignment is one slot read, and its score
/// is printed by AppendFixed4().
///
/// Memory: a concept run is a pure function of (network, concept id),
/// so a writer holds at most one run of each kind per concept of its
/// network, however many documents it writes; the opening runs and
/// the node stack are per-document buffers whose capacity is reused.
///
/// Not thread-safe: one writer per thread, as each runtime engine
/// worker owns one. `network` must outlive the writer.
class SemanticXmlWriter {
 public:
  explicit SemanticXmlWriter(const wordnet::SemanticNetwork& network)
      : network_(network) {}

  SemanticXmlWriter(const SemanticXmlWriter&) = delete;
  SemanticXmlWriter& operator=(const SemanticXmlWriter&) = delete;

  /// The annotated XML text of `semantic_tree` (SemanticTreeToXml()).
  std::string Write(const SemanticTree& semantic_tree);

 private:
  /// Attribute runs keyed by concept id, stored back to back in one
  /// string; the table grows with the concepts the writer has used.
  class RunTable {
   public:
    /// The run of `key`, written by `write(std::string*)` on first
    /// use. The view is valid until the next new key.
    template <typename Write>
    std::string_view Get(uint32_t key, Write&& write) {
      bool inserted = false;
      const uint32_t run = index_.FindOrInsert(
          key, static_cast<uint32_t>(starts_.size()), &inserted);
      if (inserted) {
        starts_.push_back(text_.size());
        write(&text_);
      }
      const size_t begin = starts_[run];
      const size_t end =
          run + 1 < starts_.size() ? starts_[run + 1] : text_.size();
      return std::string_view(text_).substr(begin, end - begin);
    }

   private:
    FlatIdMap index_;  ///< key -> run number
    std::vector<size_t> starts_;
    std::string text_;
  };

  /// One open <node> of the explicit-stack walk.
  struct Frame {
    xml::NodeId id;
    size_t next_child;
  };

  void BuildNodeRuns();
  std::string_view NodeRun(xml::NodeId id) const;
  size_t EstimateSize();
  void AppendIndent(size_t level);
  std::string_view PrimaryAttributes(wordnet::ConceptId id);
  std::string_view SecondaryAttributes(wordnet::ConceptId id);
  bool OpenNode(xml::NodeId id, size_t level);

  const wordnet::SemanticNetwork& network_;
  /// Kept across documents (see the class comment).
  RunTable primary_attributes_;
  RunTable secondary_attributes_;
  /// The document being written, set for the length of Write().
  const SemanticTree* semantic_tree_ = nullptr;
  std::string out_;
  /// `<node label="..." kind="..."` runs, one per (label slot, kind)
  /// of the current tree, back to back.
  std::string node_runs_;
  std::vector<size_t> node_run_starts_;
  std::vector<Frame> open_;
};

/// Writes a NodeAudit's fields (label, ambiguity, candidates with
/// concept labels/glosses resolved against `network`, chosen sense,
/// margin) into an already-open JSON object — callers add their own
/// context keys (file, path) around it. See also NodeAuditToJson().
void AppendNodeAuditFields(obs::JsonWriter* writer, const NodeAudit& audit,
                           const wordnet::SemanticNetwork& network);

/// A NodeAudit as a standalone JSON object (the `xsdf explain` record).
std::string NodeAuditToJson(const NodeAudit& audit,
                            const wordnet::SemanticNetwork& network);

}  // namespace xsdf::core

#endif  // XSDF_CORE_DISAMBIGUATOR_H_
