#include "core/ambiguity.h"

#include "core/tree_builder.h"

namespace xsdf::core {

namespace {

/// Polysemy factor of a single lemma token.
double TokenPolysemy(const wordnet::SemanticNetwork& network,
                     const std::string& token) {
  int max_senses = network.MaxPolysemy();
  if (max_senses <= 1) return 0.0;
  int senses = network.SenseCount(token);
  if (senses <= 1) return 0.0;  // unknown or monosemous: unambiguous
  return static_cast<double>(senses - 1) /
         static_cast<double>(max_senses - 1);
}

}  // namespace

double AmbiguityPolysemy(const wordnet::SemanticNetwork& network,
                         const std::string& label) {
  std::vector<std::string> tokens = LabelSenseTokens(network, label);
  if (tokens.empty()) return 0.0;
  double sum = 0.0;
  for (const std::string& token : tokens) {
    sum += TokenPolysemy(network, token);
  }
  return sum / static_cast<double>(tokens.size());
}

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
                       const wordnet::SemanticNetwork& network,
                       const AmbiguityWeights& weights) {
  return AmbiguityDegreeWithPolysemy(
      tree, id, AmbiguityPolysemy(network, std::string(tree.label(id))),
      weights);
}

double AmbiguityDegreeWithPolysemy(const xml::LabeledTree& tree,
                                   xml::NodeId id, double polysemy,
                                   const AmbiguityWeights& weights) {
  // Assumption 4: a label with a single sense (or none) is unambiguous
  // regardless of structure. AmbiguityPolysemy already evaluates to 0
  // in that case, making the whole ratio 0.
  if (polysemy <= 0.0 || weights.polysemy <= 0.0) return 0.0;
  double depth_term = 1.0 - AmbiguityDepth(tree, id);
  double density_term = 1.0 - AmbiguityDensity(tree, id);
  double denominator =
      weights.depth * depth_term + weights.density * density_term + 1.0;
  return weights.polysemy * polysemy / denominator;
}

double AverageAmbiguityDegree(const xml::LabeledTree& tree,
                              const wordnet::SemanticNetwork& network,
                              const AmbiguityWeights& weights) {
  if (tree.empty()) return 0.0;
  double sum = 0.0;
  for (xml::NodeId id : tree.ids()) {
    sum += AmbiguityDegree(tree, id, network, weights);
  }
  return sum / static_cast<double>(tree.size());
}

std::vector<xml::NodeId> SelectTargetNodes(
    const xml::LabeledTree& tree, const wordnet::SemanticNetwork& network,
    double threshold, const AmbiguityWeights& weights) {
  std::vector<xml::NodeId> targets;
  for (xml::NodeId id : tree.ids()) {
    // Nodes with no senses at all cannot be assigned a concept; they are
    // never targets even at threshold 0.
    bool has_sense = false;
    for (const std::string& token :
         LabelSenseTokens(network, std::string(tree.label(id)))) {
      if (network.SenseCount(token) > 0) {
        has_sense = true;
        break;
      }
    }
    if (!has_sense) continue;
    if (AmbiguityDegree(tree, id, network, weights) >= threshold) {
      targets.push_back(id);
    }
  }
  return targets;
}

}  // namespace xsdf::core
