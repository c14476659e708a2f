#include "core/scores.h"

#include <algorithm>

#include "common/simd.h"

namespace xsdf::core {

size_t LabelTermMemo::KeyHash::operator()(const Key& key) const {
  // SplitMix64 finalizer over the label id and primary concept, with
  // the secondary concept (usually kInvalidConcept) spread in first.
  uint64_t h = (uint64_t{key.label_id} << 32) |
               static_cast<uint32_t>(key.primary);
  h ^= static_cast<uint32_t>(key.secondary) * 0x9E3779B97F4A7C15ULL;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<size_t>(h ^ (h >> 31));
}

double LabelTermMemo::Term(const wordnet::SemanticNetwork& network,
                           const sim::CombinedMeasure& measure,
                           uint32_t label_id, const LabelSenses& senses,
                           const SenseCandidate& candidate) {
  // A senseless label scores 0 against every candidate; leaving it out
  // keeps out-of-vocabulary content from growing the memo.
  if (!senses.has_senses()) return 0.0;
  auto [it, inserted] = terms_.try_emplace(
      Key{label_id, candidate.primary, candidate.secondary}, 0.0);
  if (!inserted) return it->second;
  // For simple context labels a compound candidate is compared exactly
  // per Eq. 10: max over context senses of the average of the two
  // token-sense similarities. For compound context labels each context
  // token is matched independently and the results averaged.
  double total = 0.0;
  for (std::span<const wordnet::ConceptId> token : senses.token_senses) {
    double best = 0.0;
    for (wordnet::ConceptId sense : token) {
      double sim = measure.Similarity(network, candidate.primary, sense);
      if (candidate.is_compound()) {
        sim = (sim + measure.Similarity(network, candidate.secondary,
                                        sense)) /
              2.0;
      }
      best = std::max(best, sim);
    }
    total += best;
  }
  it->second = total / static_cast<double>(senses.token_senses.size());
  return it->second;
}

IdResolvedContext::IdResolvedContext(LabelSpace& space,
                                     const IdSphere& sphere,
                                     const IdContextVector& vector)
    : sphere_size_(sphere.size()) {
  // First-occurrence label grouping via SIMD scan over the small flat
  // set of distinct ids seen so far (spheres rarely hold more than a
  // few dozen distinct labels; see IdContextVector for the same
  // tradeoff).
  const size_t member_count = sphere.label_ids.size();
  label_ids_.reserve(member_count);
  members_.reserve(member_count);
  bool center_skipped = false;
  for (size_t m = 0; m < member_count; ++m) {
    const uint32_t label_id = sphere.label_ids[m];
    if (!center_skipped && sphere.distances[m] == 0) {
      center_skipped = true;  // skip exactly the center occurrence
      continue;
    }
    const uint32_t entry = static_cast<uint32_t>(
        simd::FindU32(label_ids_.data(), label_ids_.size(), label_id));
    if (entry == label_ids_.size()) {
      label_ids_.push_back(label_id);
      labels_.push_back(&space.Senses(label_id));
    }
    members_.push_back({entry, vector.WeightById(label_id)});
  }
  terms_.resize(labels_.size());
}

double IdResolvedContext::Score(const wordnet::SemanticNetwork& network,
                                const sim::CombinedMeasure& measure,
                                const SenseCandidate& candidate,
                                LabelTermMemo* terms) {
  if (sphere_size_ == 0) return 0.0;
  for (size_t li = 0; li < labels_.size(); ++li) {
    terms_[li] =
        terms->Term(network, measure, label_ids_[li], *labels_[li], candidate);
  }
  double sum = 0.0;
  for (const Member& member : members_) {
    double sim = terms_[member.label_index];
    if (sim <= 0.0) continue;
    sum += sim * member.weight;
  }
  return sum / static_cast<double>(sphere_size_);
}

std::vector<SenseCandidate> EnumerateCandidatesById(LabelSpace& space,
                                                    uint32_t label_id) {
  const LabelSenses& senses = space.Senses(label_id);
  std::vector<SenseCandidate> candidates;
  if (senses.token_senses.empty()) return candidates;
  if (senses.token_senses.size() == 1) {
    for (wordnet::ConceptId sense : senses.token_senses[0]) {
      candidates.push_back({sense, wordnet::kInvalidConcept});
    }
    return candidates;
  }
  // Compound: combinations over the first two sense-bearing tokens
  // (tags with more than two terms are unlikely in practice — paper
  // §3.2 footnote).
  for (wordnet::ConceptId p : senses.token_senses[0]) {
    for (wordnet::ConceptId q : senses.token_senses[1]) {
      candidates.push_back({p, q});
    }
  }
  return candidates;
}

double IdContextScore(const wordnet::SemanticNetwork& network,
                      const SenseCandidate& candidate,
                      const IdContextVector& xml_vector, int radius,
                      VectorSimilarity vector_similarity) {
  IdSphere concept_sphere =
      candidate.is_compound()
          ? BuildCompoundConceptIdSphere(network, candidate.primary,
                                         candidate.secondary, radius)
          : BuildConceptIdSphere(network, candidate.primary, radius);
  IdContextVector concept_vector(concept_sphere);
  return vector_similarity == VectorSimilarity::kJaccard
             ? xml_vector.Jaccard(concept_vector)
             : xml_vector.Cosine(concept_vector);
}

}  // namespace xsdf::core
