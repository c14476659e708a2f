#ifndef XSDF_TESTS_ORACLES_STRING_PIPELINE_H_
#define XSDF_TESTS_ORACLES_STRING_PIPELINE_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ambiguity.h"
#include "core/scores.h"
#include "sim/combined.h"
#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

/// The string-keyed front half of the disambiguation core (paper
/// Definitions 3-10, Eqs. 1-13): label tokens and Amb_Polysemy split
/// per node, target selection over them, spheres of label spellings,
/// context vectors keyed by spelling, and Concept_/Context_Score over
/// them. The id pipeline in src/core (LabelSpace::Senses and its
/// candidates, SelectTargetNodes, IdSphere, IdContextVector,
/// IdResolvedContext, IdContextScore) replaced it in production;
/// tests hold the id pipeline to these functions bit for bit.
namespace xsdf::oracles {

/// Splits a node label into the lemma tokens that carry its senses:
/// a label the network knows as one lemma (including collocations like
/// "first_name") is a single token; otherwise an underscore-joined
/// compound is split into its constituent tokens (paper §3.2's
/// unresolved-compound case, whose senses are combined by Eqs. 10/12).
std::vector<std::string> LabelSenseTokens(
    const wordnet::SemanticNetwork& network, const std::string& label);

/// Amb_Polysemy(x.l, SN) of Eq. 1: (senses-1) / (Max(senses(SN))-1).
/// Unknown labels have 0 senses and score 0. Compound labels average
/// their tokens' polysemy factors (the Definition 3 special case).
double AmbiguityPolysemy(const wordnet::SemanticNetwork& network,
                         const std::string& label);

/// Amb_Deg(x, T, SN) of Eq. 4, the node's label split and its
/// polysemy computed on every call: core::AmbiguityDegree() applied to
/// AmbiguityPolysemy() of the node's label.
double AmbiguityDegree(const xml::LabeledTree& tree, xml::NodeId id,
                       const wordnet::SemanticNetwork& network,
                       const core::AmbiguityWeights& weights = {});

/// Nodes whose string-path Amb_Deg >= threshold and whose label has at
/// least one token with senses, in id order: the reference for
/// core::SelectTargetNodes() and Disambiguator::SelectTargets().
std::vector<xml::NodeId> SelectTargetNodes(
    const xml::LabeledTree& tree, const wordnet::SemanticNetwork& network,
    double threshold, const core::AmbiguityWeights& weights = {});

/// One node of a sphere neighborhood: a label at a structural distance
/// from the sphere center (distance 0 is the center itself).
struct SphereMember {
  std::string label;
  int distance = 0;
};

/// A sphere neighborhood S_d(x) (Definition 5): all members at distance
/// <= d from the center, including the center at distance 0, over
/// either an XML tree (containment edges) or the semantic network
/// (semantic relation edges).
struct Sphere {
  int radius = 0;
  std::vector<SphereMember> members;

  /// |S_d(x)|, the center included (with this convention the weights of
  /// paper Figure 7's d=1 vector are reproduced exactly).
  int size() const { return static_cast<int>(members.size()); }
};

/// The weighted context vector V_d(x) of Definitions 6-7: one dimension
/// per distinct label in the sphere, weighted by structural frequency
/// (Eqs. 5-7). Dimensions are stored, and accumulated, in
/// first-occurrence sphere order.
class ContextVector {
 public:
  ContextVector() = default;

  /// Builds the vector from a sphere per Definition 7. With
  /// `uniform_proximity` the structural proximity factor is 1 for every
  /// member (the bag-of-words context of prior work).
  explicit ContextVector(const Sphere& sphere,
                         bool uniform_proximity = false);

  /// w(l): the weight of label `l`, 0 when absent.
  double Weight(const std::string& label) const;

  /// (label, weight) dimensions in first-occurrence sphere order.
  const std::vector<std::pair<std::string, double>>& weights() const {
    return entries_;
  }
  size_t dimension_count() const { return entries_.size(); }
  int sphere_size() const { return sphere_size_; }

  /// Cosine similarity (Definition 10's comparison; 0 for empty
  /// vectors).
  double Cosine(const ContextVector& other) const;

  /// Weighted Jaccard, sum(min(w)) / sum(max(w)) (footnote 10).
  double Jaccard(const ContextVector& other) const;

 private:
  /// Index into entries_ of `label`, or -1.
  int FindEntry(const std::string& label) const;

  std::vector<std::pair<std::string, double>> entries_;
  int sphere_size_ = 0;
};

/// S_d(center) over the tree's containment edges, ring by ring. With
/// `exclude_tokens`, content token nodes other than the center are left
/// out (structure-only context).
Sphere BuildXmlSphere(const xml::LabeledTree& tree, xml::NodeId center,
                      int radius, bool exclude_tokens = false);

/// S_d(c) over the semantic network (paper §3.5.2); labels are concept
/// labels (first lemma).
Sphere BuildConceptSphere(const wordnet::SemanticNetwork& network,
                          wordnet::ConceptId center, int radius);

/// S_d(s_p, s_q) = S_d(s_p) U S_d(s_q) (Eq. 12); members present in both
/// keep their smaller distance, in concept-id order.
Sphere BuildCompoundConceptSphere(const wordnet::SemanticNetwork& network,
                                  wordnet::ConceptId p,
                                  wordnet::ConceptId q, int radius);

/// The sense candidates of a preprocessed node label: its senses when
/// the network knows it (or its single sense-bearing token), otherwise
/// every pairing of its first two sense-bearing compound tokens. Empty
/// when no token has a sense.
std::vector<core::SenseCandidate> EnumerateCandidates(
    const wordnet::SemanticNetwork& network, const std::string& label);

/// A sphere context resolved against the sense index once, so scoring N
/// candidates splits and looks up each distinct label a single time.
/// Holds spans into `network`'s sense index: build, score and discard
/// while the network is unchanged.
class ResolvedContext {
 public:
  ResolvedContext(const wordnet::SemanticNetwork& network,
                  const Sphere& sphere, const ContextVector& vector);

  /// Concept_Score(candidate, sphere, vector) of Definition 8 / Eq. 10.
  double Score(const wordnet::SemanticNetwork& network,
               const sim::CombinedMeasure& measure,
               const core::SenseCandidate& candidate) const;

 private:
  /// One distinct sphere label: the sense lists of its sense-bearing
  /// tokens (empty when no token has a sense — scores 0).
  struct ResolvedLabel {
    std::vector<std::span<const wordnet::ConceptId>> token_senses;
  };
  /// One sphere member (the center occurrence removed).
  struct Member {
    uint32_t label_index = 0;  ///< into labels_
    double weight = 0.0;       ///< vector.Weight(label)
  };

  std::vector<ResolvedLabel> labels_;
  std::vector<Member> members_;
  int sphere_size_ = 0;
};

/// Concept_Score(s_p, S_d(x), SN-bar) of Definition 8 (Eq. 10 for
/// compound candidates): the context-weighted average over context
/// nodes of the best candidate-to-context-sense similarity, the center
/// itself excluded.
double ConceptScore(const wordnet::SemanticNetwork& network,
                    const sim::CombinedMeasure& measure,
                    const core::SenseCandidate& candidate,
                    const Sphere& sphere, const ContextVector& vector);

/// Context_Score(s_p, S_d(x), SN) of Definition 10 (Eq. 12): the vector
/// similarity between the XML context vector and the candidate's concept
/// sphere vector (union sphere for compound candidates).
double ContextScore(const wordnet::SemanticNetwork& network,
                    const core::SenseCandidate& candidate,
                    const ContextVector& xml_vector, int radius,
                    core::VectorSimilarity vector_similarity =
                        core::VectorSimilarity::kCosine);

/// Eq. 13: w_concept * Concept_Score + w_context * Context_Score.
double CombinedScore(const wordnet::SemanticNetwork& network,
                     const sim::CombinedMeasure& measure,
                     const core::SenseCandidate& candidate,
                     const Sphere& sphere, const ContextVector& xml_vector,
                     int radius, const core::CombinationWeights& weights,
                     core::VectorSimilarity vector_similarity =
                         core::VectorSimilarity::kCosine);

}  // namespace xsdf::oracles

#endif  // XSDF_TESTS_ORACLES_STRING_PIPELINE_H_
