#ifndef XSDF_EVAL_RATERS_H_
#define XSDF_EVAL_RATERS_H_

#include <vector>

#include "common/rng.h"
#include "core/label_space.h"
#include "xml/labeled_tree.h"

namespace xsdf::eval {

/// Simulated panel of human ambiguity raters (stand-in for the paper's
/// five testers who rated 1000 nodes on a 0-4 scale, §4.2).
///
/// The model reproduces the paper's central observation: humans rate a
/// node by how *contextually transparent* its meaning is, not by how
/// many senses a dictionary lists. A rater's expected rating is
///
///   4 * polysemy^0.7 * (1 - transparency)
///
/// where transparency grows with node depth, the diversity of the
/// surrounding labels, and — crucially — with `context_clarity`, the
/// domain specificity of the document family. In specific domains
/// (paper Group 4: personnel, catalogs) transparency is additionally
/// boosted for high-polysemy labels: exactly the everyday words with
/// many dictionary senses ("state" under "address") are the ones whose
/// contextual meaning is obvious, which is the mechanism behind the
/// negative human/system correlations of paper Table 2.
struct RaterPanelOptions {
  int raters = 5;            ///< panel size
  double noise_sigma = 1.2;  ///< per-rater Gaussian noise (rating units)
  /// Domain specificity in [0, 1]: ~0 for generic deep corpora
  /// (Group 1) up to ~0.7 for flat domain-specific ones (Group 4).
  double context_clarity = 0.0;
};

/// Mean panel rating (in [0, 4]) for each node id in `nodes`, reading
/// label polysemy through `label_space`, the space the tree was built
/// through. Deterministic in `seed`.
std::vector<double> SimulateHumanRatings(
    const xml::LabeledTree& tree, const std::vector<xml::NodeId>& nodes,
    core::LabelSpace& label_space, const RaterPanelOptions& options,
    uint64_t seed);

/// Samples `count` distinct sense-bearing nodes from the tree for
/// rating (the paper samples 12-13 nodes per document). `label_space`
/// is the space the tree was built through.
std::vector<xml::NodeId> SampleRatableNodes(const xml::LabeledTree& tree,
                                            core::LabelSpace& label_space,
                                            int count, uint64_t seed);

}  // namespace xsdf::eval

#endif  // XSDF_EVAL_RATERS_H_
