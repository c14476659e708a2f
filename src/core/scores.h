#ifndef XSDF_CORE_SCORES_H_
#define XSDF_CORE_SCORES_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/context_vector.h"
#include "core/label_space.h"
#include "sim/combined.h"
#include "wordnet/semantic_network.h"

namespace xsdf::core {

/// A candidate meaning for a target node label: a single sense for
/// simple labels, or a pair of senses (one per token) for compound
/// labels whose collocation is not in the network (Eqs. 10/12).
struct SenseCandidate {
  wordnet::ConceptId primary = wordnet::kInvalidConcept;
  wordnet::ConceptId secondary = wordnet::kInvalidConcept;

  bool is_compound() const {
    return secondary != wordnet::kInvalidConcept;
  }
  friend bool operator==(const SenseCandidate& a, const SenseCandidate& b) {
    return a.primary == b.primary && a.secondary == b.secondary;
  }
};

/// The immutable, shareable sense inventory of one label. Produced
/// once, then passed around as shared_ptr<const SenseEntry>: a cache
/// hit hands out another reference instead of copying the candidate
/// vector, and an entry held by an in-flight worker stays alive after
/// the cache evicts it.
struct SenseEntry {
  std::vector<SenseCandidate> candidates;
};

/// Enumerates the sense candidates of the label interned under
/// `label_id`: the label's senses when the network knows it (or its
/// single sense-bearing token); otherwise all combinations of its first
/// two sense-bearing compound tokens. Empty when no token has any
/// sense. Served from the space's memoized sense resolution (no string
/// splitting or lemma hashing after a label's first sight).
std::vector<SenseCandidate> EnumerateCandidatesById(LabelSpace& space,
                                                    uint32_t label_id);

/// Definition 8's inner term at label grain: a candidate's best
/// similarity to one context label, the max over the label's senses
/// (Eq. 10 for compound candidates; the tokens of a compound context
/// label are matched independently and averaged). The term is a pure
/// function of (context label id, candidate), so it is computed once,
/// with plain CombinedMeasure::Similarity() calls in sense order, and
/// then read back for every later node whose sphere holds that label.
///
/// One memo is valid for one LabelSpace, network and measure
/// composition (a Disambiguator owns one), and is not thread-safe.
class LabelTermMemo {
 public:
  /// The term of `candidate` against the label interned under
  /// `label_id`, whose resolved senses are `senses`.
  double Term(const wordnet::SemanticNetwork& network,
              const sim::CombinedMeasure& measure, uint32_t label_id,
              const LabelSenses& senses, const SenseCandidate& candidate);

 private:
  struct Key {
    uint32_t label_id = 0;
    wordnet::ConceptId primary = wordnet::kInvalidConcept;
    wordnet::ConceptId secondary = wordnet::kInvalidConcept;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  std::unordered_map<Key, double, KeyHash> terms_;
};

/// A sphere context resolved against the sense inventory once, so that
/// scoring N candidates reads each sphere label's senses a single time
/// instead of N times per sphere member. Sphere labels resolve through
/// the LabelSpace's memoized per-id sense table; distinct labels
/// collapse to one entry, grouped in first-occurrence order, and each
/// candidate's term for a label is read once from a LabelTermMemo and
/// reused for every member carrying that label (the term is pure, so
/// reuse is bit-identical). Member weights come from the
/// IdContextVector.
///
/// Holds pointers into the space's memo, whose spans point into the
/// network's sense index — build, score, and discard while the network
/// is unchanged.
class IdResolvedContext {
 public:
  IdResolvedContext(LabelSpace& space, const IdSphere& sphere,
                    const IdContextVector& vector);

  /// Concept_Score(s_p, S_d(x), SN-bar) of Definition 8 (and its
  /// compound extension Eq. 10): the average over context nodes of the
  /// maximum candidate-to-context-sense similarity, scaled by each
  /// context node's context-vector weight. The center node itself is
  /// not scored against (its own label's best sense is the candidate
  /// itself, a constant across candidates). Per-label terms come from
  /// `terms`, which must belong to the space this context was resolved
  /// through and to `network` and `measure`.
  double Score(const wordnet::SemanticNetwork& network,
               const sim::CombinedMeasure& measure,
               const SenseCandidate& candidate, LabelTermMemo* terms);

 private:
  struct Member {
    uint32_t label_index = 0;  ///< into label_ids_ / labels_
    double weight = 0.0;       ///< vector.WeightById(label_id)
  };

  /// One distinct sphere label id, in first-occurrence order, with its
  /// resolution in the space's stable memo.
  std::vector<uint32_t> label_ids_;
  std::vector<const LabelSenses*> labels_;
  std::vector<Member> members_;
  /// Per-label terms of the candidate being scored (scratch, reused
  /// across the node's candidates).
  std::vector<double> terms_;
  int sphere_size_ = 0;
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
