#include "core/baselines.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/context_vector.h"
#include "sim/kernels.h"

namespace xsdf::core {

namespace {

SenseAssignment AssignBest(
    const wordnet::SemanticNetwork& network, xml::NodeId id,
    std::span<const wordnet::ConceptId> candidates,
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

/// Both baselines' run: every structure (element/attribute) node whose
/// label has senses gets the sense of its first sense-bearing token
/// (compound tokens are processed separately, as distinct labels) that
/// `baseline.Score()` ranks best. Content token nodes are never
/// disambiguated: structure-and-content is XSDF-only (paper Table 4).
template <typename Baseline>
Result<SemanticTree> AssignStructureNodes(const Baseline& baseline,
                                          LabelSpace& label_space,
                                          xml::LabeledTree tree) {
  XSDF_RETURN_IF_ERROR(CheckLabelSource(tree, label_space));
  SemanticTree result;
  result.assignments.Reset(tree.size());
  for (xml::NodeId id : tree.ids()) {
    if (tree.kind(id) == xml::TreeNodeKind::kToken) continue;
    const LabelSenses& senses = label_space.Senses(tree.label_id(id));
    if (!senses.has_senses()) continue;
    result.assignments.emplace(
        id, AssignBest(label_space.network(), id,
                       senses.token_senses.front(),
                       [&](wordnet::ConceptId c) {
                         return baseline.Score(tree, id, c);
                       }));
  }
  result.tree = std::move(tree);
  return result;
}

}  // namespace

// ---------------------------------------------------------------- RPD --

RpdBaseline::RpdBaseline(LabelSpace* label_space)
    : label_space_(label_space),
      // The cited RPD configuration combines gloss overlap [6] with the
      // Wu-Palmer edge measure [59]; no information-content component.
      measure_(sim::MeasureConfig::PaperHybrid(0.5, 0.0, 0.5)) {}

double RpdBaseline::Score(const xml::LabeledTree& tree, xml::NodeId id,
                          wordnet::ConceptId candidate) const {
  XSDF_DCHECK(CheckLabelSource(tree, *label_space_).ok(),
              "tree was built through another label space");
  // Context = the other labels on root-to-leaf paths through the node:
  // its ancestors plus its structural (element/attribute) descendants,
  // per the per-path disambiguation of [50].
  std::vector<xml::NodeId> context = tree.RootPath(id);
  for (xml::NodeId descendant : tree.Subtree(id)) {
    if (tree.kind(descendant) != xml::TreeNodeKind::kToken) {
      context.push_back(descendant);
    }
  }
  const wordnet::SemanticNetwork& network = label_space_->network();
  double total = 0.0;
  for (xml::NodeId path_node : context) {
    if (path_node == id) continue;
    double best = 0.0;
    for (std::span<const wordnet::ConceptId> senses :
         label_space_->Senses(tree.label_id(path_node)).token_senses) {
      for (wordnet::ConceptId other : senses) {
        best = std::max(best, measure_.Similarity(network, candidate, other));
      }
    }
    total += best;
  }
  return total;
}

Result<SemanticTree> RpdBaseline::RunOnTree(xml::LabeledTree tree) const {
  return AssignStructureNodes(*this, *label_space_, std::move(tree));
}

// ---------------------------------------------------------------- VSD --

VsdBaseline::VsdBaseline(LabelSpace* label_space, Options options)
    : label_space_(label_space),
      options_(options),
      max_depth_(std::max(label_space->network().MaxDepth(), 1)) {}

double VsdBaseline::DecayWeight(int distance) const {
  double d = static_cast<double>(distance);
  return std::exp(-(d * d) / (2.0 * options_.sigma * options_.sigma));
}

double VsdBaseline::LeacockChodorow(wordnet::ConceptId a,
                                    wordnet::ConceptId b) const {
  if (a == b) return 1.0;
  int len = sim::HypernymPathLength(label_space_->network(), a, b);
  if (len < 0) return 0.0;
  // lch = -log((len+1) / (2 * max_depth)); normalized by the maximum
  // attainable value -log(1 / (2 * max_depth)).
  double raw = -std::log(static_cast<double>(len + 1) /
                         (2.0 * static_cast<double>(max_depth_)));
  double max_raw = -std::log(1.0 / (2.0 * static_cast<double>(max_depth_)));
  if (max_raw <= 0.0) return 0.0;
  double sim = raw / max_raw;
  return std::clamp(sim, 0.0, 1.0);
}

double VsdBaseline::Score(const xml::LabeledTree& tree, xml::NodeId id,
                          wordnet::ConceptId candidate) const {
  XSDF_DCHECK(CheckLabelSource(tree, *label_space_).ok(),
              "tree was built through another label space");
  const IdSphere sphere = BuildXmlIdSphere(tree, id, options_.max_distance);
  // Members come ring by ring, the center first, so the first member
  // past the crossable horizon ends the context.
  double total = 0.0;
  for (int m = 1; m < sphere.size(); ++m) {
    double weight = DecayWeight(sphere.distances[static_cast<size_t>(m)]);
    if (weight < options_.threshold) break;  // edge no longer crossable
    double best = 0.0;
    for (std::span<const wordnet::ConceptId> senses :
         label_space_->Senses(sphere.label_ids[static_cast<size_t>(m)])
             .token_senses) {
      for (wordnet::ConceptId other : senses) {
        best = std::max(best, LeacockChodorow(candidate, other));
      }
    }
    total += weight * best;
  }
  return total;
}

Result<SemanticTree> VsdBaseline::RunOnTree(xml::LabeledTree tree) const {
  return AssignStructureNodes(*this, *label_space_, std::move(tree));
}

}  // namespace xsdf::core
