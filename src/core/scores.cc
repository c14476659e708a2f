#include "core/scores.h"

#include <algorithm>

#include "common/check.h"

namespace xsdf::core {

namespace {

/// SplitMix64 finalizer.
uint64_t Mix64(uint64_t h) {
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

/// The term of `candidate` against the context label whose resolved
/// senses are `senses`. For simple context labels a compound candidate
/// is compared exactly per Eq. 10: max over context senses of the
/// average of the two token-sense similarities. For compound context
/// labels each context token is matched independently and the results
/// averaged.
double Term(const wordnet::SemanticNetwork& network,
            const sim::CombinedMeasure& measure, const LabelSenses& senses,
            const SenseCandidate& candidate) {
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
  return total / static_cast<double>(senses.token_senses.size());
}

}  // namespace

size_t LabelTermMemo::Row(const wordnet::SemanticNetwork& network,
                          const sim::CombinedMeasure& measure,
                          uint32_t label_id, const LabelSenses& senses,
                          uint32_t target_label_id,
                          std::span<const SenseCandidate> candidates) {
  XSDF_DCHECK(senses.has_senses(), "a senseless label has no term row");
  if (2 * (row_count_ + 1) > row_slots_.size()) GrowRows();
  const uint64_t key = (uint64_t{label_id} << 32) | target_label_id;
  const size_t mask = row_slots_.size() - 1;
  size_t i = static_cast<size_t>(Mix64(key)) & mask;
  while (row_slots_[i].key != kEmptyRow) {
    if (row_slots_[i].key == key) return row_slots_[i].row;
    i = (i + 1) & mask;
  }
  const size_t row = row_terms_.size();
  for (const SenseCandidate& candidate : candidates) {
    row_terms_.push_back(Term(network, measure, senses, candidate));
  }
  row_slots_[i] = {key, row};
  ++row_count_;
  return row;
}

void LabelTermMemo::GrowRows() {
  std::vector<RowSlot> old = std::move(row_slots_);
  row_slots_.assign(old.empty() ? 64 : 2 * old.size(), RowSlot());
  const size_t mask = row_slots_.size() - 1;
  for (const RowSlot& slot : old) {
    if (slot.key == kEmptyRow) continue;
    size_t i = static_cast<size_t>(Mix64(slot.key)) & mask;
    while (row_slots_[i].key != kEmptyRow) i = (i + 1) & mask;
    row_slots_[i] = slot;
  }
}

void IdResolvedContext::Assign(LabelSpace& space,
                               const IdContextVector& vector) {
  vector_ = &vector;
  const std::span<const uint32_t> ids = vector.ids();
  const std::span<const uint32_t> member_dims = vector.member_dims();
  labels_.assign(ids.size(), nullptr);
  // The center (member 0) is not scored against, so its dimension
  // counts only when another member shares its label; every other
  // dimension first occurs past the center. A senseless label scores 0
  // against every candidate and stays null, which also keeps
  // out-of-vocabulary content out of the term memo.
  bool center_label_shared = false;
  for (size_t m = 1; m < member_dims.size() && !center_label_shared; ++m) {
    center_label_shared = member_dims[m] == 0;
  }
  for (size_t dim = center_label_shared ? 0 : 1; dim < ids.size(); ++dim) {
    const LabelSenses& senses = space.Senses(ids[dim]);
    if (senses.has_senses()) labels_[dim] = &senses;
  }
  rows_.resize(ids.size());
}

void IdResolvedContext::Score(const wordnet::SemanticNetwork& network,
                              const sim::CombinedMeasure& measure,
                              uint32_t target_label_id,
                              std::span<const SenseCandidate> candidates,
                              LabelTermMemo* terms,
                              std::vector<double>* scores) {
  const size_t count = candidates.size();
  scores->assign(count, 0.0);
  const int sphere_size = vector_->sphere_size();
  if (sphere_size == 0) return;
  const std::span<const uint32_t> ids = vector_->ids();
  for (size_t dim = 0; dim < labels_.size(); ++dim) {
    if (labels_[dim] == nullptr) continue;
    rows_[dim] = terms->Row(network, measure, ids[dim], *labels_[dim],
                            target_label_id, candidates);
  }
  // Each candidate's sum runs over the members in member order, one
  // addition per member whose term is positive, exactly as a
  // per-candidate loop would add them.
  const double* all_terms = terms->terms().data();
  const std::span<const double> weights = vector_->weights();
  const std::span<const uint32_t> member_dims = vector_->member_dims();
  double* sums = scores->data();
  for (size_t m = 1; m < member_dims.size(); ++m) {
    const uint32_t dim = member_dims[m];
    if (labels_[dim] == nullptr) continue;
    const double* row = all_terms + rows_[dim];
    const double weight = weights[dim];
    for (size_t i = 0; i < count; ++i) {
      const double term = row[i];
      if (term <= 0.0) continue;
      sums[i] += term * weight;
    }
  }
  for (size_t i = 0; i < count; ++i) {
    sums[i] /= static_cast<double>(sphere_size);
  }
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
