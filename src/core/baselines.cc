#include "core/baselines.h"

#include <algorithm>
#include <cmath>

#include "core/tree_builder.h"

namespace xsdf::core {

namespace {

/// First sense-bearing token of a label (the VSD convention of
/// processing compound tokens separately) or the label itself.
std::vector<wordnet::ConceptId> PrimaryTokenSenses(
    const wordnet::SemanticNetwork& network, const std::string& label) {
  for (const std::string& token : LabelSenseTokens(network, label)) {
    const std::vector<wordnet::ConceptId>& senses = network.Senses(token);
    if (!senses.empty()) return senses;
  }
  return {};
}

SenseAssignment AssignBest(
    const wordnet::SemanticNetwork& network, xml::NodeId id,
    const std::vector<wordnet::ConceptId>& candidates,
    const std::function<double(wordnet::ConceptId)>& score_fn) {
  SenseAssignment assignment;
  assignment.node = id;
  assignment.candidate_count = static_cast<int>(candidates.size());
  if (candidates.size() == 1) {
    assignment.sense = {candidates[0], wordnet::kInvalidConcept};
    assignment.score = 1.0;
    return assignment;
  }
  // Context scores normalized to the top, plus the same
  // most-frequent-sense tie-breaker XSDF uses (all compared systems
  // consume the same weighted network SN-bar).
  constexpr double kFrequencyPrior = 0.15;
  std::vector<double> scores(candidates.size(), 0.0);
  double max_score = 0.0;
  double max_freq = 0.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = score_fn(candidates[i]);
    max_score = std::max(max_score, scores[i]);
    max_freq =
        std::max(max_freq, network.GetConcept(candidates[i]).frequency);
  }
  size_t best = 0;
  double best_score = -1.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    double s = max_score > 0.0 ? scores[i] / max_score : 0.0;
    if (max_freq > 0.0) {
      s += kFrequencyPrior *
           network.GetConcept(candidates[i]).frequency / max_freq;
    }
    if (s > best_score) {
      best_score = s;
      best = i;
    }
  }
  assignment.sense = {candidates[best], wordnet::kInvalidConcept};
  assignment.score = best_score;
  return assignment;
}

}  // namespace

// ---------------------------------------------------------------- RPD --

RpdBaseline::RpdBaseline(const wordnet::SemanticNetwork* network)
    : network_(network),
      // The cited RPD configuration combines gloss overlap [6] with the
      // Wu-Palmer edge measure [59]; no information-content component.
      measure_(sim::MeasureConfig::PaperHybrid(0.5, 0.0, 0.5)) {}

double RpdBaseline::Score(const xml::LabeledTree& tree, xml::NodeId id,
                          wordnet::ConceptId candidate) const {
  // Context = the other labels on root-to-leaf paths through the node:
  // its ancestors plus its structural (element/attribute) descendants,
  // per the per-path disambiguation of [50].
  std::vector<xml::NodeId> context = tree.RootPath(id);
  for (xml::NodeId descendant : tree.Subtree(id)) {
    if (tree.kind(descendant) != xml::TreeNodeKind::kToken) {
      context.push_back(descendant);
    }
  }
  double total = 0.0;
  for (xml::NodeId path_node : context) {
    if (path_node == id) continue;
    const std::string label(tree.label(path_node));
    double best = 0.0;
    for (const std::string& token : LabelSenseTokens(*network_, label)) {
      for (wordnet::ConceptId other : network_->Senses(token)) {
        best = std::max(best,
                        measure_.Similarity(*network_, candidate, other));
      }
    }
    total += best;
  }
  return total;
}

Result<SemanticTree> RpdBaseline::RunOnTree(xml::LabeledTree tree) const {
  SemanticTree result;
  result.assignments.Reset(tree.size());
  for (xml::NodeId id : tree.ids()) {
    // RPD generates structure features: element/attribute labels only;
    // content (token) nodes are not disambiguated (paper Table 4).
    if (tree.kind(id) == xml::TreeNodeKind::kToken) continue;
    std::vector<wordnet::ConceptId> candidates =
        PrimaryTokenSenses(*network_, std::string(tree.label(id)));
    if (candidates.empty()) continue;
    result.assignments.emplace(
        id, AssignBest(*network_, id, candidates, [&](wordnet::ConceptId c) {
          return Score(tree, id, c);
        }));
  }
  result.tree = std::move(tree);
  return result;
}

// ---------------------------------------------------------------- VSD --

VsdBaseline::VsdBaseline(const wordnet::SemanticNetwork* network,
                         Options options)
    : network_(network), options_(options) {}

double VsdBaseline::DecayWeight(int distance) const {
  double d = static_cast<double>(distance);
  return std::exp(-(d * d) / (2.0 * options_.sigma * options_.sigma));
}

double VsdBaseline::LeacockChodorow(wordnet::ConceptId a,
                                    wordnet::ConceptId b) const {
  if (a == b) return 1.0;
  int len = network_->HypernymPathLength(a, b);
  if (len < 0) return 0.0;
  int max_depth = std::max(network_->MaxDepth(), 1);
  // lch = -log((len+1) / (2 * max_depth)); normalized by the maximum
  // attainable value -log(1 / (2 * max_depth)).
  double raw = -std::log(static_cast<double>(len + 1) /
                         (2.0 * static_cast<double>(max_depth)));
  double max_raw = -std::log(1.0 / (2.0 * static_cast<double>(max_depth)));
  if (max_raw <= 0.0) return 0.0;
  double sim = raw / max_raw;
  return std::clamp(sim, 0.0, 1.0);
}

double VsdBaseline::Score(const xml::LabeledTree& tree, xml::NodeId id,
                          wordnet::ConceptId candidate) const {
  std::vector<std::vector<xml::NodeId>> rings =
      tree.Rings(id, options_.max_distance);
  double total = 0.0;
  for (int d = 1; d < static_cast<int>(rings.size()); ++d) {
    double weight = DecayWeight(d);
    if (weight < options_.threshold) break;  // edge no longer crossable
    for (xml::NodeId context : rings[static_cast<size_t>(d)]) {
      const std::string label(tree.label(context));
      double best = 0.0;
      for (const std::string& token : LabelSenseTokens(*network_, label)) {
        for (wordnet::ConceptId other : network_->Senses(token)) {
          best = std::max(best, LeacockChodorow(candidate, other));
        }
      }
      total += weight * best;
    }
  }
  return total;
}

Result<SemanticTree> VsdBaseline::RunOnTree(xml::LabeledTree tree) const {
  SemanticTree result;
  result.assignments.Reset(tree.size());
  for (xml::NodeId id : tree.ids()) {
    // VSD disambiguates structured labels, not text content
    // (paper Table 4: structure-and-content is XSDF-only).
    if (tree.kind(id) == xml::TreeNodeKind::kToken) continue;
    std::vector<wordnet::ConceptId> candidates =
        PrimaryTokenSenses(*network_, std::string(tree.label(id)));
    if (candidates.empty()) continue;
    result.assignments.emplace(
        id, AssignBest(*network_, id, candidates, [&](wordnet::ConceptId c) {
          return Score(tree, id, c);
        }));
  }
  result.tree = std::move(tree);
  return result;
}

}  // namespace xsdf::core
