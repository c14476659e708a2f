#ifndef XSDF_CORE_CONTEXT_VECTOR_H_
#define XSDF_CORE_CONTEXT_VECTOR_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

/// A sphere neighborhood S_d(x) (paper Definition 5): all members at
/// distance <= d from the center, including the center at distance 0,
/// over either an XML tree (containment edges) or the semantic network
/// (semantic relation edges). |S_d(x)| counts the center, the
/// convention that reproduces paper Figure 7's d=1 weights exactly.
///
/// Laid out structure-of-arrays: member label ids (interned via
/// core::LabelSpace for XML labels, SemanticNetwork::LabelTokenId for
/// concept labels — one shared id space) and member distances are
/// parallel flat vectors, so the consumers' SIMD scans
/// (first-occurrence dedup, sorted intersects) load full lanes of ids
/// with no (id, distance) deinterleave. Building one does no string
/// work at all. Members are stored ring by ring.
struct IdSphere {
  int radius = 0;
  std::vector<uint32_t> label_ids;  ///< parallel to distances
  std::vector<int32_t> distances;

  int size() const { return static_cast<int>(label_ids.size()); }
  bool empty() const { return label_ids.empty(); }
  void clear() {
    label_ids.clear();
    distances.clear();
  }
  void reserve(size_t n) {
    label_ids.reserve(n);
    distances.reserve(n);
  }
  void push_back(uint32_t label_id, int32_t distance) {
    label_ids.push_back(label_id);
    distances.push_back(distance);
  }
};

/// The weighted context vector V_d(x) of Definitions 6-7: one dimension
/// per distinct label id in the sphere, weighted by structural
/// frequency (occurrence frequency scaled by structural proximity,
/// Eqs. 5-7). Dimensions are stored in first-occurrence sphere order
/// and all accumulation follows that order, so every weight and
/// similarity depends only on which members share a label, never on
/// the id values themselves; lookups are a binary search over a small
/// sorted permutation. Grouping the members by label records each
/// member's dimension, so consumers that walk the sphere member by
/// member (IdResolvedContext) never group it again.
class IdContextVector {
 public:
  IdContextVector() = default;

  /// Builds the vector from a sphere per Definition 7. When
  /// `uniform_proximity` is set, the structural proximity factor is
  /// fixed at 1 for every member — degrading the model to the
  /// bag-of-words context of prior work (used by the ablation bench).
  explicit IdContextVector(const IdSphere& sphere,
                           bool uniform_proximity = false);

  /// Rebuilds this vector from `sphere`, reusing the existing buffers
  /// (the per-node hot loop builds thousands of vectors; reassignment
  /// keeps their capacity instead of reallocating, wide spheres
  /// included). Equivalent to
  /// `*this = IdContextVector(sphere, uniform_proximity)`.
  void Assign(const IdSphere& sphere, bool uniform_proximity = false);

  /// w(l) for the label interned under `label_id`, 0 when absent.
  double WeightById(uint32_t label_id) const;

  /// Dimension label ids in first-occurrence sphere order.
  std::span<const uint32_t> ids() const { return ids_; }
  /// Dimension weights, parallel to ids().
  std::span<const double> weights() const { return weights_; }
  /// The dimension of each sphere member, in member order:
  /// ids()[member_dims()[m]] == sphere.label_ids[m].
  std::span<const uint32_t> member_dims() const { return member_dims_; }
  size_t dimension_count() const { return ids_.size(); }
  int sphere_size() const { return sphere_size_; }

  /// Cosine similarity with another context vector (Definition 10's
  /// comparison operator; 0 for empty vectors).
  double Cosine(const IdContextVector& other) const;

  /// Weighted Jaccard similarity, the alternative vector comparison
  /// the paper's footnote 10 mentions: sum(min(w)) / sum(max(w)).
  double Jaccard(const IdContextVector& other) const;

 private:
  /// Index into ids_/weights_ of `label_id`, or -1 (binary search over
  /// order_).
  int FindEntry(uint32_t label_id) const;

  /// The dimension of `label_id` among the wide-sphere dedup table's
  /// first `mask + 1` slots, appending a new dimension on first sight.
  uint32_t WideDimension(uint32_t label_id, size_t mask);

  /// wide_index_ dimension of an empty slot.
  static constexpr uint32_t kEmptyWideSlot = 0xFFFFFFFFu;

  std::vector<uint32_t> ids_;     ///< first-occurrence order
  std::vector<double> weights_;   ///< parallel to ids_
  std::vector<uint32_t> member_dims_;  ///< per sphere member
  /// Open-addressing (label id, dimension) table for spheres too wide
  /// for a linear dedup scan: a power-of-two prefix sized to the
  /// sphere is cleared per Assign; the buffer only ever grows.
  std::vector<std::pair<uint32_t, uint32_t>> wide_index_;
  std::vector<uint32_t> order_;   ///< indices into ids_, sorted by id
  /// ids_ permuted by order_ (i.e. ascending) — the contiguous SoA
  /// form the SIMD Cosine/Jaccard merge loads; sorted_ids_[k] ==
  /// ids_[order_[k]].
  std::vector<uint32_t> sorted_ids_;
  int sphere_size_ = 0;
};

/// Struct(x_i, S_d(x)) of Eq. 7: 1 - Dist(x, x_i) / (d + 1).
double StructuralProximity(int distance, int radius);

/// Builds the XML sphere neighborhood S_d(center) over the tree
/// (Definition 5): ring by ring, in node id order within a ring —
/// exactly tree.Rings(center, radius)'s order — each member carrying
/// its node's tree.label_id(). Rings are merged, not sorted: ring d is
/// the center's d-th ancestor, then the (d-1)-th ancestor's other
/// children with the previous ring's other members' children spliced
/// in where the path to the center leaves it. That relies on the
/// tree's node ids being preorder ranks, as LabeledTree documents
/// (checked in checked builds). When `exclude_tokens` is set, content
/// token nodes past the center are left out of the sphere
/// (structure-only context; ablation of the paper's
/// structure-and-content integration, §3.1).
IdSphere BuildXmlIdSphere(const xml::LabeledTree& tree, xml::NodeId center,
                          int radius, bool exclude_tokens = false);

/// Same, rebuilding into `*out` (members cleared, capacity reused) so
/// a per-node loop allocates nothing after its first sphere.
void BuildXmlIdSphere(const xml::LabeledTree& tree, xml::NodeId center,
                      int radius, bool exclude_tokens, IdSphere* out);

/// Builds the concept sphere neighborhood S_d(c) over the semantic
/// network (paper §3.5.2), rings following all semantic relations.
/// Labels are the concepts' LabelTokenId()s (network must be
/// finalized).
IdSphere BuildConceptIdSphere(const wordnet::SemanticNetwork& network,
                              wordnet::ConceptId center, int radius);

/// Compound sphere S_d(s_p, s_q) = S_d(s_p) U S_d(s_q) for compound
/// labels whose tokens resolve to two senses (Eq. 12). Members present
/// in both spheres keep their smaller distance; members are in
/// concept-id order.
IdSphere BuildCompoundConceptIdSphere(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId p,
    wordnet::ConceptId q, int radius);

}  // namespace xsdf::core

#endif  // XSDF_CORE_CONTEXT_VECTOR_H_
