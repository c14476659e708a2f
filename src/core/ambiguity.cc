#include "core/ambiguity.h"

#include <cmath>

#include "common/check.h"

namespace xsdf::core {

double AmbiguityDepth(const xml::LabeledTree& tree, xml::NodeId id) {
  int max_depth = tree.MaxDepth();
  if (max_depth <= 0) return 1.0;  // single-node tree: root is maximal
  return 1.0 - static_cast<double>(tree.depth(id)) /
                   static_cast<double>(max_depth);
}

double AmbiguityDensity(const xml::LabeledTree& tree, xml::NodeId id) {
  int max_density = tree.MaxDensity();
  if (max_density <= 0) return 1.0;  // no node has children
  return 1.0 - static_cast<double>(tree.DistinctChildLabelCount(id)) /
                   static_cast<double>(max_density);
}

double AmbiguityDegree(const xml::LabeledTree& tree, xml::NodeId id,
                       double polysemy, const AmbiguityWeights& weights) {
  // Assumption 4: a label with a single sense (or none) is unambiguous
  // regardless of structure. Its Amb_Polysemy is already 0 in that
  // case, making the whole ratio 0.
  if (polysemy <= 0.0 || weights.polysemy <= 0.0) return 0.0;
  double depth_term = 1.0 - AmbiguityDepth(tree, id);
  double density_term = 1.0 - AmbiguityDensity(tree, id);
  double denominator =
      weights.depth * depth_term + weights.density * density_term + 1.0;
  return weights.polysemy * polysemy / denominator;
}

double AverageAmbiguityDegree(const xml::LabeledTree& tree,
                              LabelSpace& space,
                              const AmbiguityWeights& weights) {
  if (tree.empty()) return 0.0;
  XSDF_DCHECK(CheckLabelSource(tree, space).ok(),
              "tree was built through another label space");
  double sum = 0.0;
  for (xml::NodeId id : tree.ids()) {
    sum += AmbiguityDegree(tree, id, space.Senses(tree.label_id(id)).polysemy,
                           weights);
  }
  return sum / static_cast<double>(tree.size());
}

std::vector<xml::NodeId> SelectTargetNodes(
    const xml::LabeledTree& tree, LabelSpace& space, double threshold,
    const AmbiguityWeights& weights, obs::Histogram* degree_pct) {
  XSDF_DCHECK(tree.empty() || CheckLabelSource(tree, space).ok(),
              "tree was built through another label space");
  std::vector<xml::NodeId> targets;
  for (xml::NodeId id : tree.ids()) {
    // Senseless labels can never be assigned a concept, so they are
    // never targets, even at threshold 0.
    const LabelSenses& senses = space.Senses(tree.label_id(id));
    if (!senses.has_senses()) continue;
    const double degree = AmbiguityDegree(tree, id, senses.polysemy, weights);
    if (degree < threshold) continue;
    targets.push_back(id);
    if (degree_pct != nullptr) {
      degree_pct->Record(static_cast<uint64_t>(std::lround(degree * 100.0)));
    }
  }
  return targets;
}

}  // namespace xsdf::core
