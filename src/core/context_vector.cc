#include "core/context_vector.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

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
  order_.clear();
  sorted_ids_.clear();
  sphere_size_ = sphere.size();
  if (sphere.empty()) return;
  // Freq(l, S) = sum of structural proximities of members labelled l,
  // accumulated in member order into first-occurrence-ordered entries.
  // Spheres are small (a few
  // dozen distinct labels), so first-occurrence dedup is a SIMD scan
  // over the flat id array built so far — cheaper than a hash map at
  // this size — with a hash-map fallback for pathologically wide
  // spheres.
  const size_t member_count = sphere.label_ids.size();
  ids_.reserve(member_count);
  weights_.reserve(member_count);
  constexpr size_t kLinearScanLimit = 96;
  std::unordered_map<uint32_t, uint32_t> index;
  const bool use_map = member_count > kLinearScanLimit;
  if (use_map) index.reserve(member_count);
  for (size_t m = 0; m < member_count; ++m) {
    const uint32_t label_id = sphere.label_ids[m];
    size_t entry;
    if (use_map) {
      auto [it, inserted] =
          index.emplace(label_id, static_cast<uint32_t>(ids_.size()));
      entry = it->second;
      if (inserted) {
        ids_.push_back(label_id);
        weights_.push_back(0.0);
      }
    } else {
      entry = simd::FindU32(ids_.data(), ids_.size(), label_id);
      if (entry == ids_.size()) {
        ids_.push_back(label_id);
        weights_.push_back(0.0);
      }
    }
    weights_[entry] +=
        uniform_proximity
            ? 1.0
            : StructuralProximity(sphere.distances[m], sphere.radius);
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
  // Inline BFS over the undirected tree adjacency producing exactly
  // the ring-by-ring, sorted-within-ring member order of
  // tree.Rings(center, radius), but with reusable scratch instead of
  // Rings()'s per-call ring vectors and visited array: an
  // epoch-stamped mark table and two flat frontier buffers, reused
  // across every sphere built on this thread.
  thread_local std::vector<uint32_t> mark;
  thread_local uint32_t epoch = 0;
  thread_local std::vector<xml::NodeId> frontier;
  thread_local std::vector<xml::NodeId> next;
  if (mark.size() < tree.size()) mark.resize(tree.size(), 0);
  if (++epoch == 0) {  // epoch wrapped: invalidate all stale marks
    std::fill(mark.begin(), mark.end(), 0);
    epoch = 1;
  }

  sphere.push_back(tree.label_id(center), 0);
  mark[static_cast<size_t>(center)] = epoch;
  frontier.clear();
  frontier.push_back(center);
  for (int d = 1; d <= radius && !frontier.empty(); ++d) {
    next.clear();
    for (xml::NodeId id : frontier) {
      auto visit = [&](xml::NodeId neighbor) {
        if (neighbor != xml::kInvalidNode &&
            mark[static_cast<size_t>(neighbor)] != epoch) {
          mark[static_cast<size_t>(neighbor)] = epoch;
          next.push_back(neighbor);
        }
      };
      visit(tree.parent(id));
      for (xml::NodeId child : tree.children(id)) visit(child);
    }
    std::sort(next.begin(), next.end());
    for (xml::NodeId id : next) {
      if (exclude_tokens && tree.kind(id) == xml::TreeNodeKind::kToken) {
        continue;
      }
      sphere.push_back(tree.label_id(id), d);
    }
    std::swap(frontier, next);
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
