#ifndef XSDF_WORDNET_SEMANTIC_NETWORK_H_
#define XSDF_WORDNET_SEMANTIC_NETWORK_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/token_interner.h"

namespace xsdf::snapshot {
class NetworkCodec;
}  // namespace xsdf::snapshot

namespace xsdf::wordnet {

/// Index of a concept (synset) inside a SemanticNetwork.
using ConceptId = int;
inline constexpr ConceptId kInvalidConcept = -1;

/// WordNet part of speech.
enum class PartOfSpeech { kNoun, kVerb, kAdjective, kAdverb };

/// Returns 'n', 'v', 'a', or 'r'.
char PosToChar(PartOfSpeech pos);
/// Parses a WNDB ss_type character ('s' maps to kAdjective).
Result<PartOfSpeech> PosFromChar(char c);

/// Semantic relation labels (paper Definition 2's R), matching the
/// WNDB pointer-symbol inventory for nouns plus a few shared ones.
enum class Relation {
  kHypernym,          ///< @   Is-A (generalization)
  kInstanceHypernym,  ///< @i  instance Is-A (Grace_Kelly -> actress)
  kHyponym,           ///< ~   inverse of hypernym
  kInstanceHyponym,   ///< ~i  inverse of instance hypernym
  kMemberHolonym,     ///< #m  Member-Of (this is a member of target)
  kPartHolonym,       ///< #p  Part-Of
  kSubstanceHolonym,  ///< #s  Substance-Of
  kMemberMeronym,     ///< %m  Has-Member
  kPartMeronym,       ///< %p  Has-Part
  kSubstanceMeronym,  ///< %s  Has-Substance
  kAntonym,           ///< !
  kAttribute,         ///< =
  kDerivation,        ///< +
  kSimilarTo,         ///< &
  kAlsoSee,           ///< ^
};

/// WNDB pointer symbol for a relation ("@", "~", "#m", ...).
std::string_view RelationToSymbol(Relation relation);
/// Parses a WNDB pointer symbol.
Result<Relation> RelationFromSymbol(std::string_view symbol);
/// The inverse relation (hypernym <-> hyponym, holonym <-> meronym,
/// symmetric relations map to themselves).
Relation InverseRelation(Relation relation);

/// One hypernym-ancestor of a concept in its precomputed ancestor
/// table: the ancestor id and its shortest hypernym-path distance from
/// the concept. Tables are sorted by ancestor id, so LCS-style queries
/// over two concepts are a linear merge of two sorted arrays instead
/// of repeated upward graph walks.
struct AncestorEntry {
  ConceptId id = kInvalidConcept;
  int32_t distance = 0;
};

/// One typed edge out of a concept.
struct Edge {
  Relation relation;
  ConceptId target;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.relation == b.relation && a.target == b.target;
  }
};

/// A concept node (synset): a set of synonymous lemmas sharing one
/// meaning, a textual gloss, typed edges, and (in the weighted network
/// SN-bar) a corpus frequency.
struct Concept {
  ConceptId id = kInvalidConcept;
  PartOfSpeech pos = PartOfSpeech::kNoun;
  /// Lemmas, lowercase, collocations joined with '_'. The first lemma
  /// is the concept's label c.l.
  std::vector<std::string> synonyms;
  std::string gloss;
  std::vector<Edge> edges;
  /// Corpus tag count of this exact synset (the numbers printed next to
  /// concepts in the paper's Figure 2).
  double frequency = 0.0;
  /// Lexicographer file number, kept for byte-faithful WNDB output.
  int lex_file = 3;

  /// The concept label (first lemma).
  const std::string& label() const { return synonyms.front(); }
};

/// The reference knowledge base (paper Definition 2): concepts C with
/// labels L and glosses G, edges E labelled with relations R, plus the
/// weighted variant's concept frequencies. Also provides the taxonomy
/// utilities the similarity measures need (depth, subsumers, cumulative
/// information-content counts).
///
/// Thread-safety contract: a *finalized* network (FinalizeFrequencies()
/// called after the last mutation) is immutable, and every const member
/// is a pure read — safe to share across any number of threads without
/// synchronization. FinalizeFrequencies() eagerly fills the internal
/// depth cache so no const accessor writes afterwards. Mutating members
/// (AddConcept, AddEdge, SetFrequency, SetSenseOrder) must never run
/// concurrently with readers.
class SemanticNetwork {
 public:
  SemanticNetwork() = default;
  SemanticNetwork(const SemanticNetwork&) = delete;
  SemanticNetwork& operator=(const SemanticNetwork&) = delete;
  SemanticNetwork(SemanticNetwork&&) = default;
  SemanticNetwork& operator=(SemanticNetwork&&) = default;

  /// Adds a concept; synonyms must be non-empty, lowercase lemmas.
  /// Sense numbering of a lemma follows insertion order.
  ConceptId AddConcept(PartOfSpeech pos, std::vector<std::string> synonyms,
                       std::string gloss, int lex_file = 3);

  /// Adds `relation` from `source` to `target`; when `add_inverse` the
  /// inverse edge is added too (the WordNet convention).
  void AddEdge(ConceptId source, Relation relation, ConceptId target,
               bool add_inverse = true);

  void SetFrequency(ConceptId id, double frequency);

  size_t size() const { return concepts_.size(); }
  const Concept& GetConcept(ConceptId id) const {
    return concepts_[static_cast<size_t>(id)];
  }
  const std::vector<Concept>& concepts() const { return concepts_; }

  /// Concept ids for `lemma`, in sense order; empty when unknown.
  /// Lemma lookup is case-insensitive and '_'-normalized; the lemma is
  /// normalized into a thread-local buffer and looked up through the
  /// interner's heterogeneous index, so no per-query string is
  /// allocated. The returned reference is invalidated by AddConcept.
  const std::vector<ConceptId>& Senses(std::string_view lemma) const;
  /// senses(w): the number of senses of `lemma` (0 when unknown).
  int SenseCount(std::string_view lemma) const;
  bool Contains(std::string_view lemma) const;

  /// Max(senses(SN)): the maximum polysemy of any lemma (Proposition 1's
  /// normalizer; 33 for "head" in WordNet 2.1). Computed once when the
  /// network is finalized (or restored from a snapshot); an unfinalized
  /// network rescans its sense index on every call.
  int MaxPolysemy() const;

  /// Replaces the ordering of `lemma`'s senses of part-of-speech `pos`
  /// with `ordered`; senses of other parts of speech are regrouped in
  /// n/v/a/r order around it. Intended for WNDB parsing, where the
  /// index.<pos> files define canonical sense order. Fails unless
  /// `ordered` is a permutation of the lemma's current senses of that
  /// pos.
  Status SetSenseOrder(std::string_view lemma, PartOfSpeech pos,
                       const std::vector<ConceptId>& ordered);

  /// Number of distinct lemmas.
  size_t LemmaCount() const { return lemma_count_; }

  /// The token interner shared by the lemma index and the precomputed
  /// gloss token bags: lemma and gloss-token spellings map to the same
  /// contiguous uint32_t id space.
  const TokenInterner& interner() const { return interner_; }

  /// Interner id of concept `id`'s label (first lemma). Defined after
  /// FinalizeFrequencies(); lets concept spheres carry the same id
  /// space as XML tree labels.
  uint32_t LabelTokenId(ConceptId id) const {
    return label_token_ids_v_[static_cast<size_t>(id)];
  }

  /// Targets of hypernym + instance-hypernym edges of `id`.
  std::vector<ConceptId> Hypernyms(ConceptId id) const;
  /// Targets of hyponym + instance-hyponym edges of `id`.
  std::vector<ConceptId> Hyponyms(ConceptId id) const;

  /// Taxonomic depth: shortest hypernym chain from `id` to a root
  /// (a concept with no hypernyms). Roots have depth 0.
  int Depth(ConceptId id) const;
  /// The maximum taxonomic depth over the network.
  int MaxDepth() const;

  /// All hypernym-ancestors of `id` (including itself) with their
  /// shortest hypernym-path distance from `id`.
  std::unordered_map<ConceptId, int> AncestorDistances(ConceptId id) const;

  /// Concepts grouped by semantic distance from `center` following all
  /// relation edges: element r is the SN ring R_r(center); element 0 is
  /// {center}. Used to build concept sphere neighborhoods (§3.5.2).
  std::vector<std::vector<ConceptId>> Rings(ConceptId center,
                                            int max_distance) const;

  /// Cumulative frequency: freq(id) + the frequencies of all hyponym
  /// descendants. Defined after FinalizeFrequencies().
  double CumulativeFrequency(ConceptId id) const {
    return cumulative_frequency_v_[static_cast<size_t>(id)];
  }
  /// Total cumulative frequency at taxonomy roots (the information
  /// content normalizer N).
  double TotalFrequency() const { return total_frequency_; }

  // ---- Precomputed kernel tables (defined once finalized()) --------
  //
  // FinalizeFrequencies() freezes the network into dense id-based
  // tables so the similarity hot path (Wu-Palmer / Resnik / Lin /
  // gloss overlap) is table lookups and sorted-array merges instead of
  // per-pair graph traversal and gloss re-tokenization.
  //
  // The tables are read through span views that point either at the
  // vectors FinalizeFrequencies() builds or — for a network restored
  // from a binary snapshot — directly into a read-only file mapping
  // (pointer-free, offset-based; see src/snapshot/). Both sources feed
  // the identical accessor code, so snapshot-backed and live-built
  // networks are indistinguishable to every kernel.

  /// Hypernym ancestors of `id` (including itself at distance 0) with
  /// shortest hypernym-path distances, sorted by ancestor id.
  std::span<const AncestorEntry> Ancestors(ConceptId id) const {
    size_t i = static_cast<size_t>(id);
    return ancestor_entries_v_.subspan(
        static_cast<size_t>(ancestor_offsets_v_[i]),
        static_cast<size_t>(ancestor_offsets_v_[i + 1] -
                            ancestor_offsets_v_[i]));
  }

  /// The extended-gloss token sequence of `id` (own gloss + glosses of
  /// its hypernyms, hyponyms, meronyms and holonyms, tokenized,
  /// stop-word filtered, stemmed, interned), in text order — the input
  /// of sim::GlossOverlapMeasure.
  std::span<const uint32_t> GlossTokens(ConceptId id) const {
    size_t i = static_cast<size_t>(id);
    return gloss_tokens_v_.subspan(
        static_cast<size_t>(gloss_offsets_v_[i]),
        static_cast<size_t>(gloss_offsets_v_[i + 1] - gloss_offsets_v_[i]));
  }

  /// Sorted set of distinct extended-gloss token ids of `id`; lets the
  /// gloss kernel prove zero overlap with one linear intersection pass
  /// before running the quadratic phrase DP.
  std::span<const uint32_t> GlossTokenBag(ConceptId id) const {
    size_t i = static_cast<size_t>(id);
    return gloss_bag_tokens_v_.subspan(
        static_cast<size_t>(gloss_bag_offsets_v_[i]),
        static_cast<size_t>(gloss_bag_offsets_v_[i + 1] -
                            gloss_bag_offsets_v_[i]));
  }

  /// IC(c) = -log(CumulativeFrequency(c) / TotalFrequency()), clamped
  /// to 0 at the roots — precomputed with exactly the expression the
  /// node-based measures historically evaluated per pair, so table
  /// reads are bit-identical to recomputation.
  double InformationContentOf(ConceptId id) const {
    return information_content_v_[static_cast<size_t>(id)];
  }
  /// -log(1 / TotalFrequency()): the Resnik normalizer.
  double MaxInformationContent() const { return max_information_content_; }

  /// Computes cumulative frequencies, depth caches, and the kernel
  /// tables above (ancestor arrays, information content, interned
  /// extended-gloss token bags). Must be called after all concepts/
  /// edges/frequencies are in place and before any similarity
  /// computation; safe to call repeatedly.
  void FinalizeFrequencies();
  bool finalized() const { return finalized_; }

 private:
  /// The snapshot codec restores every private table directly from the
  /// mapped sections (src/snapshot/snapshot.cc) — the one component
  /// allowed to construct a finalized network without running
  /// FinalizeFrequencies().
  friend class ::xsdf::snapshot::NetworkCodec;

  std::vector<Concept> concepts_;
  /// Lemma/gloss-token spellings -> contiguous ids; senses_by_token_
  /// maps a token id to the concept ids whose synonyms contain it
  /// (empty for gloss-only tokens).
  TokenInterner interner_;
  std::vector<std::vector<ConceptId>> senses_by_token_;
  size_t lemma_count_ = 0;
  std::vector<double> cumulative_frequency_;
  mutable std::vector<int32_t> depth_cache_;
  double total_frequency_ = 0.0;
  bool finalized_ = false;
  /// MaxPolysemy() of the finalized network (valid while finalized_).
  int max_polysemy_ = 0;

  // Kernel tables (CSR layout, rebuilt by FinalizeFrequencies()). The
  // owned vectors are empty in a snapshot-backed network; all reads go
  // through the *_v_ views below.
  std::vector<uint64_t> ancestor_offsets_;
  std::vector<AncestorEntry> ancestor_entries_;
  std::vector<uint64_t> gloss_offsets_;
  std::vector<uint32_t> gloss_tokens_;
  std::vector<uint64_t> gloss_bag_offsets_;
  std::vector<uint32_t> gloss_bag_tokens_;
  std::vector<double> information_content_;
  double max_information_content_ = 0.0;
  /// Concept id -> interner id of its label (first lemma).
  std::vector<uint32_t> label_token_ids_;

  // Table views: into the owned vectors after FinalizeFrequencies(),
  // into the read-only mapping for a snapshot-backed network. Cleared
  // (with finalized_) by any mutation-then-refinalize cycle.
  std::span<const uint64_t> ancestor_offsets_v_;
  std::span<const AncestorEntry> ancestor_entries_v_;
  std::span<const uint64_t> gloss_offsets_v_;
  std::span<const uint32_t> gloss_tokens_v_;
  std::span<const uint64_t> gloss_bag_offsets_v_;
  std::span<const uint32_t> gloss_bag_tokens_v_;
  std::span<const double> information_content_v_;
  std::span<const double> cumulative_frequency_v_;
  std::span<const int32_t> depths_v_;
  std::span<const uint32_t> label_token_ids_v_;
  /// Keeps the mapped snapshot (if any) alive for the life of the
  /// views above; null for live-built networks.
  std::shared_ptr<const void> snapshot_backing_;

  /// Points every table view at the owned vectors (the
  /// FinalizeFrequencies() epilogue) and drops any snapshot backing.
  void BindViewsToOwnedTables();

  /// Scans the sense index for the largest sense list.
  int ScanMaxPolysemy() const;

  static std::string NormalizeLemma(std::string_view lemma);
  static void NormalizeLemmaInto(std::string_view lemma, std::string* out);
  /// The mutable sense list of a normalized lemma, or nullptr.
  std::vector<ConceptId>* FindSenses(std::string_view normalized);
};

}  // namespace xsdf::wordnet

#endif  // XSDF_WORDNET_SEMANTIC_NETWORK_H_
