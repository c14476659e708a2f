#ifndef XSDF_CORE_BASELINES_H_
#define XSDF_CORE_BASELINES_H_

#include "common/result.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

/// RPD — Root Path Disambiguation (Tagarelli et al., ESWC 2009 [50]).
///
/// Context of a node = the labels on its root path (the sequence of
/// nodes from the document root down to the node). Per-path sense
/// disambiguation compares every sense of the target label against all
/// senses of the other labels on the same path, using an unweighted
/// average of a gloss-based measure [6] and an edge-based measure [59],
/// selecting the sense with the highest total relatedness. No node
/// selection: every sense-bearing node is disambiguated; structural
/// proximity is not modeled (bag-of-words over the path).
///
/// Like Disambiguator, a baseline reads label senses through the
/// LabelSpace its trees were built with (the network is the space's);
/// a tree from any other space is InvalidArgument.
class RpdBaseline {
 public:
  /// `label_space` must outlive the baseline.
  explicit RpdBaseline(LabelSpace* label_space);

  /// Disambiguates every sense-bearing structure node of the tree.
  Result<SemanticTree> RunOnTree(xml::LabeledTree tree) const;

  /// Scores sense `candidate` of node `id` against its root path.
  double Score(const xml::LabeledTree& tree, xml::NodeId id,
               wordnet::ConceptId candidate) const;

 private:
  LabelSpace* label_space_;
  sim::CombinedMeasure measure_;  // 1/2 edge + 1/2 gloss, no node-based
};

/// VSD — Versatile Structural Disambiguation (Mandreoli et al.,
/// CIKM 2005 [29]).
///
/// Context of a node = all nodes reachable through *crossable* edges,
/// where edge crossability decays with distance through a Gaussian
/// decay function: weight(x_i) = exp(-dist^2 / (2 sigma^2)), with nodes
/// below a crossability threshold excluded. Senses are ranked by the
/// decay-weighted sum of the best edge-based similarity
/// (Leacock-Chodorow [24]) against each context node's senses. No
/// ambiguity-based node selection; compound labels are processed as
/// separate tokens (each token gets its own best sense of the first
/// token, matching the paper's remark that token senses are processed
/// separately as distinct labels).
class VsdBaseline {
 public:
  struct Options {
    double sigma = 1.5;        ///< Gaussian decay width
    double threshold = 0.10;   ///< minimum crossable weight
    int max_distance = 4;      ///< sphere radius of the context
  };

  /// `label_space` must outlive the baseline, and its network must be
  /// finalized (its maximum depth is read here, once).
  explicit VsdBaseline(LabelSpace* label_space)
      : VsdBaseline(label_space, Options()) {}
  VsdBaseline(LabelSpace* label_space, Options options);

  Result<SemanticTree> RunOnTree(xml::LabeledTree tree) const;

  /// Gaussian decay weight of a context node at `distance`.
  double DecayWeight(int distance) const;

  /// Leacock-Chodorow similarity normalized to [0, 1], over the
  /// hypernym path length of sim::HypernymPathLength.
  double LeacockChodorow(wordnet::ConceptId a, wordnet::ConceptId b) const;

  /// Scores sense `candidate` of node `id` against the members of the
  /// node's radius-max_distance sphere (core::BuildXmlIdSphere, content
  /// tokens included), ring by ring while the decay weight stays
  /// crossable.
  double Score(const xml::LabeledTree& tree, xml::NodeId id,
               wordnet::ConceptId candidate) const;

 private:
  LabelSpace* label_space_;
  Options options_;
  int max_depth_;  ///< the network's MaxDepth(), at least 1
};

}  // namespace xsdf::core

#endif  // XSDF_CORE_BASELINES_H_
