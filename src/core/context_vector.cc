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
  order_.clear();
  sorted_ids_.clear();
  sphere_size_ = sphere.size();
  if (sphere.empty()) return;
  // Freq(l, S) = sum of structural proximities of members labelled l,
  // accumulated in member order into first-occurrence-ordered entries.
  // Spheres are small (a few dozen distinct labels), so first-occurrence
  // dedup is a SIMD scan over the flat id array built so far — cheaper
  // than a hash table at this size — with an open-addressing table for
  // pathologically wide spheres.
  const size_t member_count = sphere.label_ids.size();
  ids_.reserve(member_count);
  weights_.reserve(member_count);
  member_dims_.resize(member_count);
  constexpr size_t kLinearScanLimit = 96;
  size_t wide_mask = 0;
  if (member_count > kLinearScanLimit) {
    size_t capacity = 2 * kLinearScanLimit;
    while (capacity < 2 * member_count) capacity *= 2;
    if (wide_index_.size() < capacity) wide_index_.resize(capacity);
    std::fill_n(wide_index_.begin(), capacity,
                std::pair<uint32_t, uint32_t>(0, kEmptyWideSlot));
    wide_mask = capacity - 1;
  }
  int32_t distance = -1;
  double proximity = 0.0;
  for (size_t m = 0; m < member_count; ++m) {
    const uint32_t label_id = sphere.label_ids[m];
    size_t entry;
    if (wide_mask != 0) {
      entry = WideDimension(label_id, wide_mask);
    } else {
      entry = simd::FindU32(ids_.data(), ids_.size(), label_id);
      if (entry == ids_.size()) {
        ids_.push_back(label_id);
        weights_.push_back(0.0);
      }
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
  order_.resize(ids_.size());
  for (uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(),
            [this](uint32_t a, uint32_t b) { return ids_[a] < ids_[b]; });
  // Materialize the sorted ids contiguously (SoA) so Cosine/Jaccard
  // can intersect two vectors with full-lane sorted-set merges
  // instead of per-id binary searches.
  sorted_ids_.resize(order_.size());
  for (size_t k = 0; k < order_.size(); ++k) {
    sorted_ids_[k] = ids_[order_[k]];
  }
}

uint32_t IdContextVector::WideDimension(uint32_t label_id, size_t mask) {
  // Fibonacci hashing, linear probing; the table is at most half full.
  size_t i = static_cast<size_t>((label_id * 0x9E3779B97F4A7C15ull) >> 32) &
             mask;
  while (true) {
    auto& [slot_id, slot_dim] = wide_index_[i];
    if (slot_dim == kEmptyWideSlot) {
      slot_id = label_id;
      slot_dim = static_cast<uint32_t>(ids_.size());
      ids_.push_back(label_id);
      weights_.push_back(0.0);
      return slot_dim;
    }
    if (slot_id == label_id) return slot_dim;
    i = (i + 1) & mask;
  }
}

int IdContextVector::FindEntry(uint32_t label_id) const {
  auto it = std::lower_bound(
      order_.begin(), order_.end(), label_id,
      [this](uint32_t entry, uint32_t id) { return ids_[entry] < id; });
  if (it == order_.end() || ids_[*it] != label_id) return -1;
  return static_cast<int>(*it);
}

double IdContextVector::WeightById(uint32_t label_id) const {
  int i = FindEntry(label_id);
  return i < 0 ? 0.0 : weights_[static_cast<size_t>(i)];
}

namespace {

/// Scratch for Cosine/Jaccard: intersection position pairs plus a
/// dense per-entry match buffer. Thread-local and grown-never-shrunk —
/// the scoring hot loop compares thousands of vector pairs per
/// document.
struct MatchScratch {
  std::vector<uint32_t> pos_a;
  std::vector<uint32_t> pos_b;
  std::vector<double> matched;        ///< other's weight per this-entry
  std::vector<uint8_t> other_hit;     ///< 1 per matched other-entry
};

MatchScratch& LocalMatchScratch() {
  thread_local MatchScratch scratch;
  return scratch;
}

}  // namespace

double IdContextVector::Cosine(const IdContextVector& other) const {
  // One sorted-set merge finds every matching dimension, then the
  // weights are gathered into a zero-filled dense buffer so the FP
  // accumulation below runs in first-occurrence order over exactly the
  // values a per-id WeightById() lookup would return (+0.0 for absent
  // ids), every partial sum bit-identical to that reference (the SIMD
  // equivalence tests hold every dispatch level to it).
  const size_t n = ids_.size();
  const size_t m = other.ids_.size();
  MatchScratch& scratch = LocalMatchScratch();
  const size_t cap = n < m ? n : m;
  if (scratch.pos_a.size() < cap) {
    scratch.pos_a.resize(cap);
    scratch.pos_b.resize(cap);
  }
  const size_t match_count = simd::SortedIntersectPositionsU32(
      sorted_ids_.data(), n, other.sorted_ids_.data(), m,
      scratch.pos_a.data(), scratch.pos_b.data());
  if (scratch.matched.size() < n) scratch.matched.resize(n);
  std::fill_n(scratch.matched.data(), n, 0.0);
  for (size_t t = 0; t < match_count; ++t) {
    scratch.matched[order_[scratch.pos_a[t]]] =
        other.weights_[other.order_[scratch.pos_b[t]]];
  }
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double w = weights_[i];
    norm_a += w * w;
    dot += w * scratch.matched[i];
  }
  for (double w : other.weights_) norm_b += w * w;
  if (norm_a <= 0.0 || norm_b <= 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

double IdContextVector::Jaccard(const IdContextVector& other) const {
  // One merge replaces both per-id WeightById() lookups in the min/max
  // loop and reverse lookups for the unmatched-other loop. Weights are
  // strictly positive, so min(w, +0.0) == +0.0 and max(w, +0.0) == w
  // exactly as with an absent id's +0.0: every partial sum is
  // bit-identical to the lookup reference (see Cosine).
  const size_t n = ids_.size();
  const size_t m = other.ids_.size();
  MatchScratch& scratch = LocalMatchScratch();
  const size_t cap = n < m ? n : m;
  if (scratch.pos_a.size() < cap) {
    scratch.pos_a.resize(cap);
    scratch.pos_b.resize(cap);
  }
  const size_t match_count = simd::SortedIntersectPositionsU32(
      sorted_ids_.data(), n, other.sorted_ids_.data(), m,
      scratch.pos_a.data(), scratch.pos_b.data());
  if (scratch.matched.size() < n) scratch.matched.resize(n);
  std::fill_n(scratch.matched.data(), n, 0.0);
  if (scratch.other_hit.size() < m) scratch.other_hit.resize(m);
  std::fill_n(scratch.other_hit.data(), m, static_cast<uint8_t>(0));
  for (size_t t = 0; t < match_count; ++t) {
    const uint32_t other_entry = other.order_[scratch.pos_b[t]];
    scratch.matched[order_[scratch.pos_a[t]]] =
        other.weights_[other_entry];
    scratch.other_hit[other_entry] = 1;
  }
  double min_sum = 0.0;
  double max_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double w = weights_[i];
    double v = scratch.matched[i];
    min_sum += std::min(w, v);
    max_sum += std::max(w, v);
  }
  for (size_t i = 0; i < m; ++i) {
    if (scratch.other_hit[i] == 0) max_sum += other.weights_[i];
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
