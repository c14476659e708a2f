#include "core/disambiguator.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "core/streaming_builder.h"
#include "xml/escape.h"
#include "xml/parser.h"

namespace xsdf::core {

Disambiguator::Disambiguator(const wordnet::SemanticNetwork* network,
                             DisambiguatorOptions options)
    : network_(network),
      options_(options),
      measure_(options.EffectiveMeasureConfig()) {
  measure_.set_external_cache(options_.similarity_cache);
  if (options_.label_space != nullptr) {
    label_space_ = options_.label_space;
  } else {
    owned_label_space_ = std::make_unique<LabelSpace>(network_);
    label_space_ = owned_label_space_.get();
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    ins_.select_us = m->GetHistogram("stage.select_us");
    ins_.context_us = m->GetHistogram("stage.context_us");
    ins_.score_us = m->GetHistogram("stage.score_us");
    ins_.node_ambiguity_pct = m->GetHistogram(
        "core.node_ambiguity_pct",
        {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
    ins_.node_candidates = m->GetHistogram(
        "core.node_candidates", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64});
    ins_.node_margin_milli = m->GetHistogram(
        "core.node_top2_margin_milli",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000});
    ins_.memo_lookups = m->GetCounter("core.decision_memo_lookups");
    ins_.memo_hits = m->GetCounter("core.decision_memo_hits");
  }
}

CombinationWeights Disambiguator::EffectiveCombination() const {
  switch (options_.process) {
    case DisambiguationProcess::kConceptBased:
      return {1.0, 0.0};
    case DisambiguationProcess::kContextBased:
      return {0.0, 1.0};
    case DisambiguationProcess::kCombined:
      return options_.combination_weights;
  }
  return {1.0, 0.0};
}

namespace {

/// InvalidArgument unless `id` names a node of `tree`.
Status CheckNodeId(const xml::LabeledTree& tree, xml::NodeId id) {
  if (id >= 0 && static_cast<size_t>(id) < tree.size()) return Status::Ok();
  return Status::InvalidArgument("node id " + std::to_string(id) +
                                 " is outside the tree of " +
                                 std::to_string(tree.size()) + " nodes");
}

/// The first highest score, and its margin over the best other score
/// (0 with a single score).
Decision DecideFromScores(const std::vector<double>& scores) {
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  double runner_up = 0.0;
  bool have_runner_up = false;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (i == best) continue;
    if (!have_runner_up || scores[i] > runner_up) {
      runner_up = scores[i];
      have_runner_up = true;
    }
  }
  return {static_cast<uint32_t>(best), scores[best],
          have_runner_up ? scores[best] - runner_up : 0.0};
}

}  // namespace

void Disambiguator::ScoreSphere(uint32_t label_id,
                                std::span<const SenseCandidate> candidates,
                                StageTimes* times, NodeAudit* audit) const {
  CombinationWeights combo = EffectiveCombination();
  // Group the sphere's members by label once and resolve each label
  // against the sense index once; every candidate scores against the
  // same resolved context.
  work_.vector.Assign(work_.sphere, options_.bag_of_words_context);
  if (combo.concept_weight > 0.0) {
    work_.resolved.Assign(*label_space_, work_.vector);
  }
  const uint64_t t_score = times != nullptr ? obs::MonotonicNowNs() : 0;
  if (combo.concept_weight > 0.0) {
    work_.resolved.Score(*network_, measure_, label_id, candidates,
                         &label_terms_, &work_.concept_scores);
  }
  std::vector<double>& scores = work_.scores;
  scores.clear();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const SenseCandidate& candidate = candidates[i];
    // Keep the accumulation order exactly as the un-audited path had
    // it — audit capture must stay bit-identical.
    double score = 0.0;
    double concept_part = 0.0;
    double context_part = 0.0;
    if (combo.concept_weight > 0.0) {
      concept_part = work_.concept_scores[i];
      score += combo.concept_weight * concept_part;
    }
    if (combo.context_weight > 0.0) {
      context_part = IdContextScore(*network_, candidate, work_.vector,
                                    options_.sphere_radius,
                                    options_.vector_similarity);
      score += combo.context_weight * context_part;
    }
    if (audit != nullptr) {
      CandidateAudit entry;
      entry.sense = candidate;
      entry.concept_score = concept_part;
      entry.context_score = context_part;
      audit->candidates.push_back(entry);
    }
    scores.push_back(score);
  }
  if (options_.frequency_prior > 0.0 && !candidates.empty()) {
    // Most-frequent-sense prior from SN-bar, normalized within the
    // candidate inventory so it only breaks near-ties.
    auto candidate_frequency = [&](const SenseCandidate& c) {
      double f = network_->GetConcept(c.primary).frequency;
      if (c.is_compound()) {
        f = (f + network_->GetConcept(c.secondary).frequency) / 2.0;
      }
      return f;
    };
    double max_freq = 0.0;
    for (const SenseCandidate& c : candidates) {
      max_freq = std::max(max_freq, candidate_frequency(c));
    }
    // Normalize context scores to the top score first, so the prior is
    // a fixed-strength tie-breaker regardless of the absolute score
    // scale (which shrinks with sphere size).
    double max_score = 0.0;
    for (double s : scores) max_score = std::max(max_score, s);
    if (max_score > 0.0) {
      for (double& s : scores) s /= max_score;
    }
    if (max_freq > 0.0) {
      for (size_t i = 0; i < candidates.size(); ++i) {
        const double prior = options_.frequency_prior *
                             candidate_frequency(candidates[i]) / max_freq;
        scores[i] += prior;
        if (audit != nullptr) audit->candidates[i].prior = prior;
      }
    }
  }
  if (audit != nullptr) {
    for (size_t i = 0; i < scores.size(); ++i) {
      audit->candidates[i].total = scores[i];
    }
  }
  if (times != nullptr) {
    times->score_ns += obs::MonotonicNowNs() - t_score;
  }
}

Result<SenseAssignment> Disambiguator::DisambiguateNode(
    const xml::LabeledTree& tree, xml::NodeId id) const {
  XSDF_RETURN_IF_ERROR(CheckLabelSource(tree, *label_space_));
  XSDF_RETURN_IF_ERROR(CheckNodeId(tree, id));
  return DisambiguateNodeImpl(tree, id, nullptr, nullptr);
}

Status Disambiguator::DisambiguateTargets(const xml::LabeledTree& tree,
                                          std::span<const xml::NodeId> targets,
                                          AssignmentColumn* column,
                                          StageTimes* times) const {
  XSDF_RETURN_IF_ERROR(CheckLabelSource(tree, *label_space_));
  for (xml::NodeId id : targets) XSDF_RETURN_IF_ERROR(CheckNodeId(tree, id));
  // Timed whole: what ScoreSphere books to score_ns is scoring, and
  // the rest of the loop is context.
  StageTimes* timed = ins_.context_us != nullptr ? times : nullptr;
  const uint64_t t_start = timed != nullptr ? obs::MonotonicNowNs() : 0;
  const uint64_t score_before = timed != nullptr ? timed->score_ns : 0;
  for (xml::NodeId id : targets) {
    auto assignment = DisambiguateNodeImpl(tree, id, timed, nullptr);
    if (!assignment.ok()) continue;  // senseless labels stay untouched
    column->slot(id) = std::move(assignment).value();
  }
  if (timed != nullptr) {
    timed->context_ns += obs::MonotonicNowNs() - t_start -
                         (timed->score_ns - score_before);
  }
  return Status::Ok();
}

void Disambiguator::RecordStageTimes(const StageTimes& times) const {
  // One sample per document: where this document's disambiguation
  // time went, split between context construction and scoring.
  if (ins_.context_us != nullptr) {
    ins_.context_us->Record((times.context_ns + 500) / 1000);
  }
  if (ins_.score_us != nullptr) {
    ins_.score_us->Record((times.score_ns + 500) / 1000);
  }
  if (ins_.memo_lookups != nullptr) {
    ins_.memo_lookups->Increment(times.memo_lookups);
    ins_.memo_hits->Increment(times.memo_hits);
  }
}

Result<SenseAssignment> Disambiguator::DisambiguateNodeImpl(
    const xml::LabeledTree& tree, xml::NodeId id, StageTimes* times,
    NodeAudit* audit) const {
  const std::string_view label = tree.label(id);
  obs::Span node_span(options_.trace, "node",
                      options_.trace != nullptr ? std::string(label)
                                                : std::string());
  // The label's memoized senses give both the candidates, read in
  // place, and the polysemy.
  const uint32_t label_id = tree.label_id(id);
  const LabelSenses& senses = label_space_->Senses(label_id);
  const std::vector<SenseCandidate>& candidates = senses.candidates;
  if (candidates.empty()) {
    return Status::NotFound("label has no senses in the network: " +
                            std::string(label));
  }
  SenseAssignment assignment;
  assignment.node = id;
  assignment.candidate_count = static_cast<int>(candidates.size());
  if (ins_.node_candidates != nullptr) {
    ins_.node_candidates->Record(candidates.size());
  }
  if (audit != nullptr) {
    audit->node = id;
    audit->label = std::string(label);
    // Selection's Amb_Deg, for the audit only: no decision reads it.
    audit->ambiguity = AmbiguityDegree(tree, id, senses.polysemy,
                                       options_.ambiguity_weights);
  }
  if (candidates.size() == 1) {
    assignment.sense = candidates[0];
    assignment.score = 1.0;
    if (audit != nullptr) {
      CandidateAudit only;
      only.sense = candidates[0];
      only.total = 1.0;
      audit->candidates.push_back(only);
      audit->chosen_index = 0;
    }
    return assignment;
  }
  BuildXmlIdSphere(tree, id, options_.sphere_radius,
                   options_.structure_only_context, &work_.sphere);
  // Audits always compute; everything else first asks the memo.
  const bool memoized = audit == nullptr;
  uint64_t key_hash = 0;
  std::optional<Decision> decision;
  if (memoized) {
    DecisionMemo::KeyOf(work_.sphere, &work_.memo_key);
    key_hash = DecisionMemo::Hash(work_.memo_key);
    decision = decisions_.Find(key_hash, work_.memo_key);
    if (times != nullptr) {
      ++times->memo_lookups;
      if (decision.has_value()) ++times->memo_hits;
    }
  }
  if (!decision.has_value()) {
    ScoreSphere(label_id, candidates, times, audit);
    decision = DecideFromScores(work_.scores);
    if (memoized) decisions_.Insert(key_hash, work_.memo_key, *decision);
  }
  if (ins_.node_margin_milli != nullptr) {
    ins_.node_margin_milli->Record(static_cast<uint64_t>(
        std::lround(std::max(decision->margin, 0.0) * 1000.0)));
  }
  if (audit != nullptr) {
    audit->chosen_index = static_cast<int>(decision->chosen);
    audit->margin = decision->margin;
  }
  assignment.sense = candidates[decision->chosen];
  assignment.score = decision->score;
  return assignment;
}

Result<NodeAudit> Disambiguator::ExplainNode(const xml::LabeledTree& tree,
                                             xml::NodeId id) const {
  XSDF_RETURN_IF_ERROR(CheckLabelSource(tree, *label_space_));
  XSDF_RETURN_IF_ERROR(CheckNodeId(tree, id));
  NodeAudit audit;
  auto assignment = DisambiguateNodeImpl(tree, id, nullptr, &audit);
  if (!assignment.ok()) return assignment.status();
  return audit;
}

std::vector<xml::NodeId> Disambiguator::SelectTargets(
    const xml::LabeledTree& tree) const {
  if (!CheckLabelSource(tree, *label_space_).ok()) {
    XSDF_DCHECK(false, "tree was built through another label space");
    return {};
  }
  obs::StageTimer timer(ins_.select_us, options_.trace, "select");
  return SelectTargetNodes(tree, *label_space_,
                           options_.ambiguity_threshold,
                           options_.ambiguity_weights,
                           ins_.node_ambiguity_pct);
}

Result<SemanticTree> Disambiguator::RunOnTree(xml::LabeledTree tree) const {
  XSDF_RETURN_IF_ERROR(CheckLabelSource(tree, *label_space_));
  const std::vector<xml::NodeId> targets = SelectTargets(tree);
  SemanticTree result;
  result.assignments.Reset(tree.size());
  StageTimes times;
  XSDF_RETURN_IF_ERROR(
      DisambiguateTargets(tree, targets, &result.assignments, &times));
  RecordStageTimes(times);
  result.assignments.Recount();
  result.tree = std::move(tree);
  return result;
}

Result<SemanticTree> Disambiguator::RunOnXml(
    const std::string& xml_text) const {
  auto tree = BuildTreeStreaming(xml_text, *network_, xml::ParseOptions{},
                                 options_.include_values, label_space_);
  if (!tree.ok()) return tree.status();
  return RunOnTree(std::move(tree).value());
}

namespace {

/// Appends ` name="value"` with the value attribute-escaped.
void AppendAttribute(std::string* out, std::string_view name,
                     std::string_view value) {
  out->push_back(' ');
  out->append(name);
  out->append("=\"");
  xml::AppendEscaped(out, value, /*attribute=*/true);
  out->push_back('"');
}

/// Appends ` name="<id>"`.
void AppendIdAttribute(std::string* out, std::string_view name,
                       wordnet::ConceptId id) {
  char digits[16];
  const std::to_chars_result printed =
      std::to_chars(digits, digits + sizeof(digits), id);
  AppendAttribute(out, name,
                  std::string_view(digits, printed.ptr - digits));
}

/// The deepest indentation level of any document the default
/// ParseLimits accept: a token below an attribute of the deepest
/// element sits at tree depth max_depth + 1, which the writer puts at
/// level max_depth + 2 under <semantic_tree>. Deeper nodes are indented
/// no further, so those documents print as they always have, and a
/// chain of n elements prints O(n) bytes instead of O(n^2) whatever the
/// depth cap.
constexpr size_t kMaxIndentLevel =
    static_cast<size_t>(xml::ParseLimits{}.max_depth) + 2;

/// A newline and the widest indentation: every line break of the
/// writer is a prefix of it.
constexpr auto kNewlineAndIndent = [] {
  std::array<char, 1 + 2 * kMaxIndentLevel> text{};
  text.fill(' ');
  text[0] = '\n';
  return text;
}();

/// The number of xml::TreeNodeKind values.
constexpr size_t kNodeKinds = 3;

/// The ` kind="..."` attribute of a node kind.
std::string_view KindAttribute(xml::TreeNodeKind kind) {
  switch (kind) {
    case xml::TreeNodeKind::kElement:
      return " kind=\"element\"";
    case xml::TreeNodeKind::kAttribute:
      return " kind=\"attribute\"";
    case xml::TreeNodeKind::kToken:
      return " kind=\"token\"";
  }
  return {};
}

}  // namespace

std::string SemanticXmlWriter::Write(const SemanticTree& semantic_tree) {
  const xml::LabeledTree& tree = semantic_tree.tree;
  semantic_tree_ = &semantic_tree;
  out_.append("<?xml version=\"1.0\"?>\n");
  if (tree.empty()) {
    out_.append("<semantic_tree/>");
  } else {
    BuildNodeRuns();
    out_.reserve(EstimateSize());
    out_.append("<semantic_tree>");
    // An explicit stack keeps deep documents off the call stack.
    open_.clear();
    if (OpenNode(tree.root(), 1)) open_.push_back({tree.root(), 0});
    while (!open_.empty()) {
      Frame& frame = open_.back();
      const std::span<const xml::NodeId> children = tree.children(frame.id);
      if (frame.next_child < children.size()) {
        const xml::NodeId child = children[frame.next_child++];
        if (OpenNode(child, open_.size() + 1)) open_.push_back({child, 0});
        continue;
      }
      AppendIndent(open_.size());
      out_.append("</node>");
      open_.pop_back();
    }
    out_.append("\n</semantic_tree>");
  }
  semantic_tree_ = nullptr;
  return std::exchange(out_, std::string());
}

/// `<node label="..." kind="..."` of every (label slot, kind) pair of
/// the tree, at index 3 * slot + kind.
void SemanticXmlWriter::BuildNodeRuns() {
  const xml::LabeledTree& tree = semantic_tree_->tree;
  node_runs_.clear();
  node_run_starts_.clear();
  node_run_starts_.reserve(kNodeKinds * tree.label_slot_count() + 1);
  std::string label;
  for (uint32_t slot = 0; slot < tree.label_slot_count(); ++slot) {
    label.clear();
    AppendAttribute(&label, "label", tree.slot_label(slot));
    for (xml::TreeNodeKind kind : {xml::TreeNodeKind::kElement,
                                   xml::TreeNodeKind::kAttribute,
                                   xml::TreeNodeKind::kToken}) {
      node_run_starts_.push_back(node_runs_.size());
      node_runs_.append("<node");
      node_runs_.append(label);
      node_runs_.append(KindAttribute(kind));
    }
  }
  node_run_starts_.push_back(node_runs_.size());
}

std::string_view SemanticXmlWriter::NodeRun(xml::NodeId id) const {
  const xml::LabeledTree& tree = semantic_tree_->tree;
  const size_t run = kNodeKinds * tree.label_slot(id) +
                     static_cast<size_t>(tree.kind(id));
  const size_t begin = node_run_starts_[run];
  return std::string_view(node_runs_)
      .substr(begin, node_run_starts_[run + 1] - begin);
}

/// The length of the text when no score prints longer than seven
/// characters (scores lie near [0, 1]), plus 1/64 for the exceptions,
/// so the buffer does not regrow: a copy of tens of MB on giant
/// documents.
size_t SemanticXmlWriter::EstimateSize() {
  const xml::LabeledTree& tree = semantic_tree_->tree;
  size_t size = out_.size() + sizeof("<semantic_tree>\n</semantic_tree>");
  for (xml::NodeId id : tree.ids()) {
    const size_t indent =
        1 + 2 * std::min(static_cast<size_t>(tree.depth(id)) + 1,
                         kMaxIndentLevel);
    size += indent + NodeRun(id).size();
    if (tree.fan_out(id) == 0) {
      size += sizeof("/>") - 1;
    } else {
      size += sizeof(">") - 1 + indent + sizeof("</node>") - 1;
    }
  }
  for (const auto& [id, assignment] : semantic_tree_->assignments) {
    size += sizeof(" score=\"00.0000\"") - 1 +
            PrimaryAttributes(assignment.sense.primary).size();
    if (assignment.sense.is_compound()) {
      size += SecondaryAttributes(assignment.sense.secondary).size();
    }
  }
  return size + size / 64;
}

void SemanticXmlWriter::AppendIndent(size_t level) {
  out_.append(kNewlineAndIndent.data(),
              1 + 2 * std::min(level, kMaxIndentLevel));
}

/// ` concept="..." concept_id="..." gloss="..."` of `id`.
std::string_view SemanticXmlWriter::PrimaryAttributes(wordnet::ConceptId id) {
  return primary_attributes_.Get(
      static_cast<uint32_t>(id), [&](std::string* run) {
        const wordnet::Concept& c = network_.GetConcept(id);
        AppendAttribute(run, "concept", c.label());
        AppendIdAttribute(run, "concept_id", id);
        AppendAttribute(run, "gloss", c.gloss);
      });
}

/// ` concept2="..." concept2_id="..."` of a compound's second sense.
std::string_view SemanticXmlWriter::SecondaryAttributes(
    wordnet::ConceptId id) {
  return secondary_attributes_.Get(
      static_cast<uint32_t>(id), [&](std::string* run) {
        AppendAttribute(run, "concept2", network_.GetConcept(id).label());
        AppendIdAttribute(run, "concept2_id", id);
      });
}

/// Opens the <node> element of tree node `id` at nesting `level` (the
/// <semantic_tree> root is level 0). Returns true when the element
/// stays open for children; a childless one is closed with "/>".
bool SemanticXmlWriter::OpenNode(xml::NodeId id, size_t level) {
  AppendIndent(level);
  out_.append(NodeRun(id));
  if (const SenseAssignment* assignment =
          semantic_tree_->assignments.find(id)) {
    out_.append(PrimaryAttributes(assignment->sense.primary));
    if (assignment->sense.is_compound()) {
      out_.append(SecondaryAttributes(assignment->sense.secondary));
    }
    out_.append(" score=\"");
    AppendFixed4(&out_, assignment->score);
    out_.push_back('"');
  }
  if (semantic_tree_->tree.fan_out(id) == 0) {
    out_.append("/>");
    return false;
  }
  out_.push_back('>');
  return true;
}

std::string SemanticTreeToXml(const SemanticTree& semantic_tree,
                              const wordnet::SemanticNetwork& network) {
  return SemanticXmlWriter(network).Write(semantic_tree);
}

namespace {

void AppendSenseJson(obs::JsonWriter* writer, const SenseCandidate& sense,
                     const wordnet::SemanticNetwork& network) {
  const wordnet::Concept& c = network.GetConcept(sense.primary);
  writer->Key("concept_id").Value(static_cast<int64_t>(sense.primary));
  writer->Key("concept").Value(c.label());
  writer->Key("gloss").Value(c.gloss);
  if (sense.is_compound()) {
    const wordnet::Concept& c2 = network.GetConcept(sense.secondary);
    writer->Key("concept2_id").Value(static_cast<int64_t>(sense.secondary));
    writer->Key("concept2").Value(c2.label());
  }
}

}  // namespace

void AppendNodeAuditFields(obs::JsonWriter* writer, const NodeAudit& audit,
                           const wordnet::SemanticNetwork& network) {
  writer->Key("node").Value(static_cast<int64_t>(audit.node));
  writer->Key("label").Value(audit.label);
  writer->Key("ambiguity").Value(audit.ambiguity);
  writer->Key("candidate_count")
      .Value(static_cast<int64_t>(audit.candidates.size()));
  writer->Key("margin").Value(audit.margin);
  if (audit.chosen_index >= 0 &&
      static_cast<size_t>(audit.chosen_index) < audit.candidates.size()) {
    const CandidateAudit& chosen =
        audit.candidates[static_cast<size_t>(audit.chosen_index)];
    writer->Key("chosen").BeginObject();
    AppendSenseJson(writer, chosen.sense, network);
    writer->Key("score").Value(chosen.total);
    writer->EndObject();
  }
  writer->Key("candidates").BeginArray();
  for (size_t i = 0; i < audit.candidates.size(); ++i) {
    const CandidateAudit& candidate = audit.candidates[i];
    writer->BeginObject();
    AppendSenseJson(writer, candidate.sense, network);
    writer->Key("concept_score").Value(candidate.concept_score);
    writer->Key("context_score").Value(candidate.context_score);
    writer->Key("prior").Value(candidate.prior);
    writer->Key("total").Value(candidate.total);
    writer->Key("chosen").Value(static_cast<int>(i) == audit.chosen_index);
    writer->EndObject();
  }
  writer->EndArray();
}

std::string NodeAuditToJson(const NodeAudit& audit,
                            const wordnet::SemanticNetwork& network) {
  obs::JsonWriter writer;
  writer.BeginObject();
  AppendNodeAuditFields(&writer, audit, network);
  writer.EndObject();
  return writer.TakeString();
}

}  // namespace xsdf::core
