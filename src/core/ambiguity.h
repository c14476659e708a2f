#ifndef XSDF_CORE_AMBIGUITY_H_
#define XSDF_CORE_AMBIGUITY_H_

#include <vector>

#include "core/label_space.h"
#include "obs/metrics.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

/// Weights of the ambiguity degree (paper Definition 3). Each lies in
/// [0, 1] and they are independent (they need not sum to 1).
struct AmbiguityWeights {
  double polysemy = 1.0;  ///< w_Polysemy
  double depth = 1.0;     ///< w_Depth
  double density = 1.0;   ///< w_Density
};

/// Amb_Depth(x, T) of Eq. 2: 1 - depth(x) / Max(depth(T)).
double AmbiguityDepth(const xml::LabeledTree& tree, xml::NodeId id);

/// Amb_Density(x, T) of Eq. 3: 1 - density(x) / Max(density(T)), where
/// density is the number of children with distinct labels.
double AmbiguityDensity(const xml::LabeledTree& tree, xml::NodeId id);

/// Amb_Deg(x, T, SN) of Eq. 4 — the full ambiguity degree in [0, 1] of
/// node `id`, given its label's Amb_Polysemy (`polysemy`, the
/// LabelSenses::polysemy of the node's label id):
///
///              w_P * Amb_Polysemy
///   ---------------------------------------------------
///   w_Dep * (1 - Amb_Depth) + w_Den * (1 - Amb_Density) + 1
///
/// Monolysemous labels score 0 (Assumption 4); compound labels average
/// their token polysemies.
double AmbiguityDegree(const xml::LabeledTree& tree, xml::NodeId id,
                       double polysemy,
                       const AmbiguityWeights& weights = {});

/// Average Amb_Deg over all nodes of the tree — the per-document
/// ambiguity feature used to assign documents to Table 1 groups.
/// `space` is the LabelSpace the tree was built through.
double AverageAmbiguityDegree(const xml::LabeledTree& tree,
                              LabelSpace& space,
                              const AmbiguityWeights& weights = {});

/// Nodes whose Amb_Deg >= threshold — the disambiguation targets
/// (paper §3.3), in id order. A threshold of 0 selects every node whose
/// label has at least one sense in the network. `space` is the
/// LabelSpace the tree was built through. `degree_pct`, when set,
/// records each target's Amb_Deg as a rounded percentage.
std::vector<xml::NodeId> SelectTargetNodes(
    const xml::LabeledTree& tree, LabelSpace& space, double threshold,
    const AmbiguityWeights& weights = {},
    obs::Histogram* degree_pct = nullptr);

}  // namespace xsdf::core

#endif  // XSDF_CORE_AMBIGUITY_H_
