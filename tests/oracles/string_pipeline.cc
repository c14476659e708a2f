#include "oracles/string_pipeline.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string_view>
#include <unordered_map>

#include "common/strings.h"
#include "core/context_vector.h"
#include "oracles/graph_walks.h"

namespace xsdf::oracles {

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

std::vector<std::string> LabelSenseTokens(
    const wordnet::SemanticNetwork& network, const std::string& label) {
  if (label.empty()) return {};
  if (network.Contains(label)) return {label};
  if (label.find('_') == std::string::npos) return {label};
  std::vector<std::string> tokens;
  for (std::string& token : StrSplit(label, '_')) {
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  return tokens;
}

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

double AmbiguityDegree(const xml::LabeledTree& tree, xml::NodeId id,
                       const wordnet::SemanticNetwork& network,
                       const core::AmbiguityWeights& weights) {
  return core::AmbiguityDegree(
      tree, id, AmbiguityPolysemy(network, std::string(tree.label(id))),
      weights);
}

std::vector<xml::NodeId> SelectTargetNodes(
    const xml::LabeledTree& tree, const wordnet::SemanticNetwork& network,
    double threshold, const core::AmbiguityWeights& weights) {
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

ContextVector::ContextVector(const Sphere& sphere, bool uniform_proximity)
    : sphere_size_(sphere.size()) {
  if (sphere.members.empty()) return;
  // Freq(l, S) = sum of structural proximities of members labelled l,
  // accumulated in member order into first-occurrence-ordered entries.
  std::unordered_map<std::string, size_t> index;
  index.reserve(sphere.members.size());
  entries_.reserve(sphere.members.size());
  for (const SphereMember& member : sphere.members) {
    auto [it, inserted] = index.emplace(member.label, entries_.size());
    if (inserted) entries_.emplace_back(member.label, 0.0);
    entries_[it->second].second +=
        uniform_proximity
            ? 1.0
            : core::StructuralProximity(member.distance, sphere.radius);
  }
  // w(l) = Freq / Max_Freq = 2*Freq / (|S| + 1)   (Eq. 5).
  double denom = static_cast<double>(sphere.size()) + 1.0;
  for (auto& [label, f] : entries_) {
    f = std::min(2.0 * f / denom, 1.0);
  }
}

int ContextVector::FindEntry(const std::string& label) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == label) return static_cast<int>(i);
  }
  return -1;
}

double ContextVector::Weight(const std::string& label) const {
  int i = FindEntry(label);
  return i < 0 ? 0.0 : entries_[static_cast<size_t>(i)].second;
}

double ContextVector::Cosine(const ContextVector& other) const {
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (const auto& [label, w] : entries_) {
    norm_a += w * w;
    double v = other.Weight(label);
    dot += w * v;
  }
  for (const auto& [label, w] : other.entries_) norm_b += w * w;
  if (norm_a <= 0.0 || norm_b <= 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

double ContextVector::Jaccard(const ContextVector& other) const {
  double min_sum = 0.0;
  double max_sum = 0.0;
  for (const auto& [label, w] : entries_) {
    double v = other.Weight(label);
    min_sum += std::min(w, v);
    max_sum += std::max(w, v);
  }
  for (const auto& [label, v] : other.entries_) {
    if (FindEntry(label) < 0) max_sum += v;
  }
  return max_sum <= 0.0 ? 0.0 : min_sum / max_sum;
}

Sphere BuildXmlSphere(const xml::LabeledTree& tree, xml::NodeId center,
                      int radius, bool exclude_tokens) {
  Sphere sphere;
  sphere.radius = radius;
  std::vector<std::vector<xml::NodeId>> rings = Rings(tree, center, radius);
  size_t total = 0;
  for (const auto& ring : rings) total += ring.size();
  sphere.members.reserve(total);
  for (int d = 0; d < static_cast<int>(rings.size()); ++d) {
    for (xml::NodeId id : rings[static_cast<size_t>(d)]) {
      if (exclude_tokens && id != center &&
          tree.kind(id) == xml::TreeNodeKind::kToken) {
        continue;
      }
      sphere.members.push_back({std::string(tree.label(id)), d});
    }
  }
  return sphere;
}

Sphere BuildConceptSphere(const wordnet::SemanticNetwork& network,
                          wordnet::ConceptId center, int radius) {
  Sphere sphere;
  sphere.radius = radius;
  std::vector<std::vector<wordnet::ConceptId>> rings =
      network.Rings(center, radius);
  size_t total = 0;
  for (const auto& ring : rings) total += ring.size();
  sphere.members.reserve(total);
  for (int d = 0; d < static_cast<int>(rings.size()); ++d) {
    for (wordnet::ConceptId id : rings[static_cast<size_t>(d)]) {
      sphere.members.push_back({network.GetConcept(id).label(), d});
    }
  }
  return sphere;
}

Sphere BuildCompoundConceptSphere(const wordnet::SemanticNetwork& network,
                                  wordnet::ConceptId p,
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
  Sphere sphere;
  sphere.radius = radius;
  for (const auto& [id, d] : distances) {
    sphere.members.push_back({network.GetConcept(id).label(), d});
  }
  return sphere;
}

std::vector<core::SenseCandidate> EnumerateCandidates(
    const wordnet::SemanticNetwork& network, const std::string& label) {
  std::vector<core::SenseCandidate> candidates;
  // Keep only sense-bearing tokens.
  std::vector<const std::vector<wordnet::ConceptId>*> sense_lists;
  for (const std::string& token : LabelSenseTokens(network, label)) {
    const std::vector<wordnet::ConceptId>& senses = network.Senses(token);
    if (!senses.empty()) sense_lists.push_back(&senses);
  }
  if (sense_lists.empty()) return candidates;
  if (sense_lists.size() == 1) {
    for (wordnet::ConceptId sense : *sense_lists[0]) {
      candidates.push_back({sense, wordnet::kInvalidConcept});
    }
    return candidates;
  }
  // Compound: combinations over the first two sense-bearing tokens.
  for (wordnet::ConceptId p : *sense_lists[0]) {
    for (wordnet::ConceptId q : *sense_lists[1]) {
      candidates.push_back({p, q});
    }
  }
  return candidates;
}

ResolvedContext::ResolvedContext(const wordnet::SemanticNetwork& network,
                                 const Sphere& sphere,
                                 const ContextVector& vector)
    : sphere_size_(sphere.size()) {
  std::unordered_map<std::string_view, uint32_t> index;
  index.reserve(sphere.members.size());
  members_.reserve(sphere.members.size());
  bool center_skipped = false;
  for (const SphereMember& member : sphere.members) {
    if (!center_skipped && member.distance == 0) {
      center_skipped = true;  // skip exactly the center occurrence
      continue;
    }
    auto [it, inserted] =
        index.emplace(member.label, static_cast<uint32_t>(labels_.size()));
    if (inserted) {
      ResolvedLabel resolved;
      for (const std::string& token :
           LabelSenseTokens(network, member.label)) {
        const std::vector<wordnet::ConceptId>& senses =
            network.Senses(token);
        if (!senses.empty()) {
          resolved.token_senses.emplace_back(senses.data(), senses.size());
        }
      }
      labels_.push_back(std::move(resolved));
    }
    members_.push_back({it->second, vector.Weight(member.label)});
  }
}

double ResolvedContext::Score(const wordnet::SemanticNetwork& network,
                              const sim::CombinedMeasure& measure,
                              const core::SenseCandidate& candidate) const {
  if (sphere_size_ == 0) return 0.0;
  // Similarity between the candidate and each distinct context label.
  // A compound candidate against a simple context label follows Eq. 10
  // exactly: max over context senses of the mean of the two token-sense
  // similarities. Compound context labels match each token
  // independently and average the results.
  std::vector<double> label_sims(labels_.size(), 0.0);
  for (size_t li = 0; li < labels_.size(); ++li) {
    double total = 0.0;
    int counted = 0;
    for (std::span<const wordnet::ConceptId> senses :
         labels_[li].token_senses) {
      double best = 0.0;
      for (wordnet::ConceptId sense : senses) {
        double sim = measure.Similarity(network, candidate.primary, sense);
        if (candidate.is_compound()) {
          sim = (sim + measure.Similarity(network, candidate.secondary,
                                          sense)) /
                2.0;
        }
        best = std::max(best, sim);
      }
      total += best;
      ++counted;
    }
    label_sims[li] =
        counted == 0 ? 0.0 : total / static_cast<double>(counted);
  }
  double sum = 0.0;
  for (const Member& member : members_) {
    double sim = label_sims[member.label_index];
    if (sim <= 0.0) continue;
    sum += sim * member.weight;
  }
  return sum / static_cast<double>(sphere_size_);
}

double ConceptScore(const wordnet::SemanticNetwork& network,
                    const sim::CombinedMeasure& measure,
                    const core::SenseCandidate& candidate,
                    const Sphere& sphere, const ContextVector& vector) {
  ResolvedContext resolved(network, sphere, vector);
  return resolved.Score(network, measure, candidate);
}

double ContextScore(const wordnet::SemanticNetwork& network,
                    const core::SenseCandidate& candidate,
                    const ContextVector& xml_vector, int radius,
                    core::VectorSimilarity vector_similarity) {
  Sphere concept_sphere =
      candidate.is_compound()
          ? BuildCompoundConceptSphere(network, candidate.primary,
                                       candidate.secondary, radius)
          : BuildConceptSphere(network, candidate.primary, radius);
  ContextVector concept_vector(concept_sphere);
  return vector_similarity == core::VectorSimilarity::kJaccard
             ? xml_vector.Jaccard(concept_vector)
             : xml_vector.Cosine(concept_vector);
}

double CombinedScore(const wordnet::SemanticNetwork& network,
                     const sim::CombinedMeasure& measure,
                     const core::SenseCandidate& candidate,
                     const Sphere& sphere, const ContextVector& xml_vector,
                     int radius, const core::CombinationWeights& weights,
                     core::VectorSimilarity vector_similarity) {
  double score = 0.0;
  if (weights.concept_weight > 0.0) {
    score += weights.concept_weight *
             ConceptScore(network, measure, candidate, sphere, xml_vector);
  }
  if (weights.context_weight > 0.0) {
    score += weights.context_weight *
             ContextScore(network, candidate, xml_vector, radius,
                          vector_similarity);
  }
  return score;
}

}  // namespace xsdf::oracles
