#ifndef XSDF_CORE_SCORES_H_
#define XSDF_CORE_SCORES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/context_vector.h"
#include "core/label_space.h"
#include "sim/combined.h"
#include "wordnet/semantic_network.h"

namespace xsdf::core {

/// Definition 8's inner term at label grain: a candidate's best
/// similarity to one context label, the max over the label's senses
/// (Eq. 10 for compound candidates; the tokens of a compound context
/// label are matched independently and averaged). The term is a pure
/// function of (context label id, candidate), so it is computed once,
/// with plain CombinedMeasure::Similarity() calls in sense order, and
/// then read back for every later node whose sphere holds that label.
///
/// Reads are at row grain: one probe per (context label, target label)
/// returns the terms of all the target label's candidates, back to back
/// in one flat array. A row's terms are computed when the row is first
/// met; a candidate shared by two target labels is computed once per
/// row (rarely: see DESIGN.md §6), its concept pairs then answered by
/// the pair cache when one is attached.
///
/// One memo is valid for one LabelSpace, network and measure
/// composition (a Disambiguator owns one), and is not thread-safe.
class LabelTermMemo {
 public:
  /// The position in terms() of the row of the context label interned
  /// under `label_id`, whose resolved senses `senses` are non-empty,
  /// against the label interned under `target_label_id`, whose
  /// candidates are `candidates` (always the same list for one target
  /// label): terms()[row + i] is candidate i's term. Positions stay
  /// valid for the memo's life; terms() may move when a row is added.
  size_t Row(const wordnet::SemanticNetwork& network,
             const sim::CombinedMeasure& measure, uint32_t label_id,
             const LabelSenses& senses, uint32_t target_label_id,
             std::span<const SenseCandidate> candidates);

  /// Every row, back to back.
  std::span<const double> terms() const { return row_terms_; }

 private:
  /// One slot of the open-addressing row index; kEmptyRow when free.
  struct RowSlot {
    uint64_t key = kEmptyRow;  ///< label_id << 32 | target_label_id
    size_t row = 0;            ///< into row_terms_
  };
  static constexpr uint64_t kEmptyRow = ~uint64_t{0};

  void GrowRows();

  std::vector<RowSlot> row_slots_;  ///< power-of-two, at most half full
  size_t row_count_ = 0;
  std::vector<double> row_terms_;
};

/// A sphere context resolved against the sense inventory once, so that
/// scoring N candidates reads each sphere label's senses a single time
/// instead of N times per sphere member. It takes the sphere's label
/// grouping and weights straight from the IdContextVector built from
/// the same sphere: each distinct label resolves once through the
/// LabelSpace's memoized per-id sense table, and its terms for every
/// candidate come from one LabelTermMemo row, reused for every member
/// carrying that label (the term is pure, so reuse is bit-identical).
///
/// Holds pointers into the vector, the space's memo and the network's
/// sense index — assign, score and reassign while they are unchanged.
/// Reassigning reuses the buffers, so a per-node loop allocates nothing
/// once they have grown.
class IdResolvedContext {
 public:
  /// Resolves the sphere `vector` was last assigned from, whose member
  /// 0 is the center (as in every XML sphere).
  void Assign(LabelSpace& space, const IdContextVector& vector);

  /// Concept_Score(s_p, S_d(x), SN-bar) of Definition 8 (and its
  /// compound extension Eq. 10) of every candidate of the center's
  /// label `target_label_id`, written to `(*scores)[i]` for
  /// `candidates[i]` (resized to match): the average over context
  /// nodes of the maximum candidate-to-context-sense similarity,
  /// scaled by each context node's context-vector weight, summed in
  /// member order. The center node itself is not scored against (its
  /// own label's best sense is the candidate itself, a constant across
  /// candidates). Per-label terms come from `terms`, which must belong
  /// to the space this context was resolved through and to `network`
  /// and `measure`.
  void Score(const wordnet::SemanticNetwork& network,
             const sim::CombinedMeasure& measure, uint32_t target_label_id,
             std::span<const SenseCandidate> candidates,
             LabelTermMemo* terms, std::vector<double>* scores);

 private:
  const IdContextVector* vector_ = nullptr;
  /// Per vector dimension: the label's resolved senses, or null when no
  /// context member (the center aside) carries a sense-bearing label
  /// there, so the dimension adds no term.
  std::vector<const LabelSenses*> labels_;
  /// Per vector dimension: its row in the term memo (scratch).
  std::vector<size_t> rows_;
};

/// How two context vectors are compared in Context_Score: cosine (the
/// paper's default) or weighted Jaccard (footnote 10's alternative).
enum class VectorSimilarity { kCosine, kJaccard };

/// Context_Score(s_p, S_d(x), SN) of Definition 10 (and Eq. 12): the
/// vector similarity between the XML context vector and the context
/// vector of the candidate's concept sphere (union sphere for compound
/// candidates), both built as flat id arrays.
double IdContextScore(const wordnet::SemanticNetwork& network,
                      const SenseCandidate& candidate,
                      const IdContextVector& xml_vector, int radius,
                      VectorSimilarity vector_similarity =
                          VectorSimilarity::kCosine);

/// The combined score of Eq. 13:
///   w_concept * Concept_Score + w_context * Context_Score,
/// with w_concept + w_context = 1.
struct CombinationWeights {
  double concept_weight = 1.0;  ///< w_Concept
  double context_weight = 0.0;  ///< w_Context
};

}  // namespace xsdf::core

#endif  // XSDF_CORE_SCORES_H_
