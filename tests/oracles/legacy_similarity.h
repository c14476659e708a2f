#ifndef XSDF_TESTS_ORACLES_LEGACY_SIMILARITY_H_
#define XSDF_TESTS_ORACLES_LEGACY_SIMILARITY_H_

#include <string>
#include <vector>

#include "wordnet/semantic_network.h"

/// The similarity measures as first written: per-pair hash-map ancestor
/// walks and re-tokenized glosses instead of the precomputed id tables
/// of a finalized network. The production measures in src/sim must
/// return the same double, bit for bit, for every concept pair.
namespace xsdf::oracles {

/// Wu & Palmer: 2 * depth(lcs) / (len(a, lcs) + len(b, lcs) +
/// 2 * depth(lcs)), the lcs found by oracles::LeastCommonSubsumer().
double LegacyWuPalmer(const wordnet::SemanticNetwork& network,
                      wordnet::ConceptId a, wordnet::ConceptId b);

/// Lin: 2 * IC(mics) / (IC(a) + IC(b)), IC recomputed from the
/// cumulative frequencies per call.
double LegacyLin(const wordnet::SemanticNetwork& network,
                 wordnet::ConceptId a, wordnet::ConceptId b);

/// Resnik, normalized: IC(mics) / -log(1 / total frequency).
double LegacyResnik(const wordnet::SemanticNetwork& network,
                    wordnet::ConceptId a, wordnet::ConceptId b);

/// Normalized extended gloss overlap over ExtendedGloss() token
/// strings.
double LegacyGlossOverlap(const wordnet::SemanticNetwork& network,
                          wordnet::ConceptId a, wordnet::ConceptId b);

/// Conceptual density (Agirre & Rigau), with the descendant and
/// direct-hyponym counts of every common subsumer recounted from
/// whole-network AncestorDistances() walks on each call.
double LegacyConceptualDensity(const wordnet::SemanticNetwork& network,
                               wordnet::ConceptId a, wordnet::ConceptId b);

/// The extended gloss of `id` as token strings: its own gloss plus the
/// glosses of its hypernyms, hyponyms, meronyms and holonyms,
/// tokenized, stop-word filtered and stemmed.
std::vector<std::string> ExtendedGloss(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId id);

/// The raw phrase-overlap score of two token sequences: repeatedly
/// extract the longest common contiguous phrase, adding length^2 each
/// time, until no common token remains.
double PhraseOverlapScore(std::vector<std::string> a,
                          std::vector<std::string> b);

}  // namespace xsdf::oracles

#endif  // XSDF_TESTS_ORACLES_LEGACY_SIMILARITY_H_
