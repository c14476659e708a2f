#include "core/context_vector.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/simd.h"

namespace xsdf::core {

double StructuralProximity(int distance, int radius) {
  return 1.0 - static_cast<double>(distance) /
                   static_cast<double>(radius + 1);
}

IdContextVector::IdContextVector(const IdSphere& sphere,
                                 bool uniform_proximity) {
  Assign(sphere, uniform_proximity);
}

void IdContextVector::Assign(const IdSphere& sphere,
                             bool uniform_proximity) {
  ids_.clear();
  weights_.clear();
  member_dims_.clear();
  wide_mask_ = 0;
  sphere_size_ = sphere.size();
  if (sphere.empty()) return;
  // Freq(l, S) = sum of structural proximities of members labelled l,
  // accumulated in member order into first-occurrence-ordered entries.
  // Spheres are small (a few dozen distinct labels), so first-occurrence
  // dedup is a SIMD scan over the flat id array built so far — cheaper
  // than a hash table at this size — with an open-addressing table for
  // pathologically wide spheres. Cosine/Jaccard look labels up through
  // the same index.
  const size_t member_count = sphere.label_ids.size();
  ids_.reserve(member_count);
  weights_.reserve(member_count);
  member_dims_.resize(member_count);
  constexpr size_t kLinearScanLimit = 96;
  if (member_count > kLinearScanLimit) {
    size_t capacity = 2 * kLinearScanLimit;
    while (capacity < 2 * member_count) capacity *= 2;
    if (wide_index_.size() < capacity) wide_index_.resize(capacity);
    std::fill_n(wide_index_.begin(), capacity,
                std::pair<uint32_t, uint32_t>(0, kEmptyWideSlot));
    wide_mask_ = capacity - 1;
  }
  int32_t distance = -1;
  double proximity = 0.0;
  for (size_t m = 0; m < member_count; ++m) {
    const uint32_t label_id = sphere.label_ids[m];
    size_t entry;
    if (wide_mask_ != 0) {
      auto& [slot_id, slot_dim] = wide_index_[WideSlot(label_id)];
      if (slot_dim == kEmptyWideSlot) {
        slot_id = label_id;
        slot_dim = static_cast<uint32_t>(ids_.size());
      }
      entry = slot_dim;
    } else {
      entry = simd::FindU32(ids_.data(), ids_.size(), label_id);
    }
    if (entry == ids_.size()) {
      ids_.push_back(label_id);
      weights_.push_back(0.0);
    }
    member_dims_[m] = static_cast<uint32_t>(entry);
    // Members come ring by ring, so the proximity is recomputed only
    // when the distance changes.
    if (sphere.distances[m] != distance) {
      distance = sphere.distances[m];
      proximity = uniform_proximity
                      ? 1.0
                      : StructuralProximity(distance, sphere.radius);
    }
    weights_[entry] += proximity;
  }
  // w(l) = Freq / Max_Freq = 2*Freq / (|S| + 1)   (Eq. 5).
  double denom = static_cast<double>(sphere.size()) + 1.0;
  for (double& f : weights_) {
    f = std::min(2.0 * f / denom, 1.0);
  }
}

size_t IdContextVector::WideSlot(uint32_t label_id) const {
  // The table is at most half full, so the probe ends.
  size_t i = static_cast<size_t>((label_id * 0x9E3779B97F4A7C15ull) >> 32) &
             wide_mask_;
  while (wide_index_[i].second != kEmptyWideSlot &&
         wide_index_[i].first != label_id) {
    i = (i + 1) & wide_mask_;
  }
  return i;
}

size_t IdContextVector::DimensionOf(uint32_t label_id) const {
  if (wide_mask_ == 0) {
    return simd::FindU32(ids_.data(), ids_.size(), label_id);
  }
  const uint32_t dim = wide_index_[WideSlot(label_id)].second;
  return dim == kEmptyWideSlot ? ids_.size() : dim;
}

// Both comparisons look each dimension of one vector up in the other
// and accumulate in first-occurrence order, an absent label
// contributing +0.0, so every partial sum is the same at every SIMD
// dispatch level (the lookups are integer scans) and bit-identical to
// the test oracle's own id-to-weight map (oracles::LookupCosine/
// LookupJaccard).
double IdContextVector::Cosine(const IdContextVector& other) const {
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    const double w = weights_[i];
    const size_t d = other.DimensionOf(ids_[i]);
    norm_a += w * w;
    dot += w * (d < other.weights_.size() ? other.weights_[d] : 0.0);
  }
  for (double w : other.weights_) norm_b += w * w;
  if (norm_a <= 0.0 || norm_b <= 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

double IdContextVector::Jaccard(const IdContextVector& other) const {
  // Weights are strictly positive, so min(w, +0.0) == +0.0 and
  // max(w, +0.0) == w for an absent label; the other's unmatched
  // dimensions then add their weights to the max sum, in its order.
  double min_sum = 0.0;
  double max_sum = 0.0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    const double w = weights_[i];
    const size_t d = other.DimensionOf(ids_[i]);
    const double v = d < other.weights_.size() ? other.weights_[d] : 0.0;
    min_sum += std::min(w, v);
    max_sum += std::max(w, v);
  }
  for (size_t i = 0; i < other.ids_.size(); ++i) {
    if (DimensionOf(other.ids_[i]) == ids_.size()) {
      max_sum += other.weights_[i];
    }
  }
  return max_sum <= 0.0 ? 0.0 : min_sum / max_sum;
}

IdSphere BuildXmlIdSphere(const xml::LabeledTree& tree, xml::NodeId center,
                          int radius, bool exclude_tokens) {
  IdSphere sphere;
  BuildXmlIdSphere(tree, center, radius, exclude_tokens, &sphere);
  return sphere;
}

void BuildXmlIdSphere(const xml::LabeledTree& tree, xml::NodeId center,
                      int radius, bool exclude_tokens, IdSphere* out) {
  IdSphere& sphere = *out;
  sphere.clear();
  sphere.radius = radius;
  sphere.push_back(tree.label_id(center), 0);
  // BFS over the undirected tree without a visited set: a ring member
  // below the path to the center reaches its children (its parent is
  // in the previous ring), while the path's topmost node `up` reaches
  // its parent and its children other than `below`, the path's next
  // node. `rings` holds ring d-1 at [begin, end) and ring d is appended
  // after it: the new ancestor first, then up's children with the
  // descendants' children spliced in at `below`. Node ids are preorder
  // ranks, so the ancestor is smaller than the rest, each run is
  // ascending, and the descendants' children all lie in below's
  // subtree, between below's siblings: the merged ring comes out in
  // node id order (the BFS oracle oracles::Rings()' order) without a
  // sort.
  thread_local std::vector<xml::NodeId> rings;
  rings.clear();
  rings.push_back(center);
  size_t begin = 0;
  xml::NodeId up = center;
  xml::NodeId below = xml::kInvalidNode;
  for (int d = 1; d <= radius; ++d) {
    const size_t end = rings.size();
    const xml::NodeId parent =
        up != xml::kInvalidNode ? tree.parent(up) : xml::kInvalidNode;
    if (parent != xml::kInvalidNode) rings.push_back(parent);
    auto push_descendant_children = [&] {
      for (size_t i = begin; i < end; ++i) {
        const xml::NodeId id = rings[i];
        if (id == up) continue;
        for (xml::NodeId child : tree.children(id)) rings.push_back(child);
      }
    };
    if (up != xml::kInvalidNode) {
      // At d == 1 there is no `below`, and no member below the path.
      for (xml::NodeId child : tree.children(up)) {
        if (child == below) {
          push_descendant_children();
        } else {
          rings.push_back(child);
        }
      }
    } else {
      push_descendant_children();
    }
    if (rings.size() == end) break;  // tree exhausted
    XSDF_DCHECK(std::is_sorted(rings.begin() +
                                   static_cast<std::ptrdiff_t>(end),
                               rings.end()),
                "tree node ids are not preorder ranks");
    for (size_t i = end; i < rings.size(); ++i) {
      const xml::NodeId id = rings[i];
      if (exclude_tokens && tree.kind(id) == xml::TreeNodeKind::kToken) {
        continue;
      }
      sphere.push_back(tree.label_id(id), d);
    }
    below = up;
    up = parent;
    begin = end;
  }
}

IdSphere BuildConceptIdSphere(const wordnet::SemanticNetwork& network,
                              wordnet::ConceptId center, int radius) {
  IdSphere sphere;
  sphere.radius = radius;
  std::vector<std::vector<wordnet::ConceptId>> rings =
      network.Rings(center, radius);
  size_t total = 0;
  for (const auto& ring : rings) total += ring.size();
  sphere.reserve(total);
  for (int d = 0; d < static_cast<int>(rings.size()); ++d) {
    for (wordnet::ConceptId id : rings[static_cast<size_t>(d)]) {
      sphere.push_back(network.LabelTokenId(id), d);
    }
  }
  return sphere;
}

IdSphere BuildCompoundConceptIdSphere(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId p,
    wordnet::ConceptId q, int radius) {
  // Union keyed by concept id, keeping the smaller distance.
  std::map<wordnet::ConceptId, int> distances;
  for (wordnet::ConceptId center : {p, q}) {
    std::vector<std::vector<wordnet::ConceptId>> rings =
        network.Rings(center, radius);
    for (int d = 0; d < static_cast<int>(rings.size()); ++d) {
      for (wordnet::ConceptId id : rings[static_cast<size_t>(d)]) {
        auto [it, inserted] = distances.emplace(id, d);
        if (!inserted && d < it->second) it->second = d;
      }
    }
  }
  IdSphere sphere;
  sphere.radius = radius;
  for (const auto& [id, d] : distances) {
    sphere.push_back(network.LabelTokenId(id), d);
  }
  return sphere;
}

}  // namespace xsdf::core
