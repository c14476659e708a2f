#include "eval/raters.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <unordered_set>

namespace xsdf::eval {

namespace {

/// How clearly the structural neighborhood pins down the node's
/// meaning: deeper nodes with diverse sibling/child labels are easier
/// for a human to read (paper Assumptions 2-3, seen from the human
/// side).
double StructuralTransparency(const xml::LabeledTree& tree,
                              xml::NodeId id) {
  double depth_term =
      tree.MaxDepth() > 0
          ? static_cast<double>(tree.depth(id)) / tree.MaxDepth()
          : 0.0;
  // Distinct labels among parent, siblings, and children.
  std::unordered_set<std::string_view> context_labels;
  const xml::NodeId parent = tree.parent(id);
  if (parent != xml::kInvalidNode) {
    context_labels.insert(tree.label(parent));
    for (xml::NodeId sibling : tree.children(parent)) {
      if (sibling != id) context_labels.insert(tree.label(sibling));
    }
  }
  for (xml::NodeId child : tree.children(id)) {
    context_labels.insert(tree.label(child));
  }
  double diversity =
      std::min(1.0, static_cast<double>(context_labels.size()) / 5.0);
  return 0.5 * depth_term + 0.5 * diversity;
}

}  // namespace

std::vector<double> SimulateHumanRatings(
    const xml::LabeledTree& tree, const std::vector<xml::NodeId>& nodes,
    core::LabelSpace& label_space, const RaterPanelOptions& options,
    uint64_t seed) {
  std::vector<double> means;
  means.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    xml::NodeId id = nodes[i];
    double polysemy = label_space.Senses(tree.label_id(id)).polysemy;
    double transparency =
        std::clamp(0.35 * StructuralTransparency(tree, id) +
                       options.context_clarity * (0.6 + 0.8 * polysemy),
                   0.0, 1.0);
    double expected =
        4.0 * std::pow(polysemy, 0.7) * (1.0 - transparency);
    double sum = 0.0;
    for (int r = 0; r < options.raters; ++r) {
      Rng rng(seed ^ (static_cast<uint64_t>(id + 1) * 2654435761ULL) ^
              (static_cast<uint64_t>(r + 1) * 40503ULL));
      double rating = expected + options.noise_sigma * rng.Gaussian();
      rating = std::clamp(rating, 0.0, 4.0);
      sum += std::round(rating);
    }
    means.push_back(sum / static_cast<double>(options.raters));
  }
  return means;
}

std::vector<xml::NodeId> SampleRatableNodes(const xml::LabeledTree& tree,
                                            core::LabelSpace& label_space,
                                            int count, uint64_t seed) {
  std::vector<xml::NodeId> candidates;
  for (xml::NodeId id : tree.ids()) {
    if (label_space.Senses(tree.label_id(id)).has_senses()) {
      candidates.push_back(id);
    }
  }
  Rng rng(seed);
  // Fisher-Yates prefix shuffle.
  for (size_t i = 0; i < candidates.size(); ++i) {
    size_t j = i + rng.UniformInt(candidates.size() - i);
    std::swap(candidates[i], candidates[j]);
  }
  if (static_cast<int>(candidates.size()) > count) {
    candidates.resize(static_cast<size_t>(count));
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

}  // namespace xsdf::eval
