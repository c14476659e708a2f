#include "oracles/legacy_similarity.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "oracles/graph_walks.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace xsdf::oracles {

namespace {

/// IC(c) = -log p(c), clamped to 0 for concepts whose cumulative
/// probability is 1 (taxonomy roots).
double InformationContent(const wordnet::SemanticNetwork& network,
                          wordnet::ConceptId id) {
  double p = network.CumulativeFrequency(id) / network.TotalFrequency();
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 0.0;
  return -std::log(p);
}

double DensityAt(uint32_t children, uint32_t descendants) {
  // descendants >= 1 always (every concept's closure contains itself).
  double density = (1.0 + static_cast<double>(children)) /
                   static_cast<double>(descendants);
  return density > 1.0 ? 1.0 : density;
}

}  // namespace

double LegacyWuPalmer(const wordnet::SemanticNetwork& network,
                      wordnet::ConceptId a, wordnet::ConceptId b) {
  if (a == b) return 1.0;
  wordnet::ConceptId lcs = LeastCommonSubsumer(network, a, b);
  if (lcs == wordnet::kInvalidConcept) return 0.0;
  auto da = network.AncestorDistances(a);
  auto db = network.AncestorDistances(b);
  int len_a = da.at(lcs);
  int len_b = db.at(lcs);
  int depth_lcs = network.Depth(lcs);
  double denominator =
      static_cast<double>(len_a + len_b + 2 * depth_lcs);
  if (denominator <= 0.0) return 0.0;  // both are roots and disjoint
  return (2.0 * depth_lcs) / denominator;
}

double LegacyLin(const wordnet::SemanticNetwork& network,
                 wordnet::ConceptId a, wordnet::ConceptId b) {
  if (a == b) return 1.0;
  // Most informative common subsumer.
  auto da = network.AncestorDistances(a);
  auto db = network.AncestorDistances(b);
  double best_ic = -1.0;
  for (const auto& [ancestor, dist] : da) {
    (void)dist;
    if (db.find(ancestor) == db.end()) continue;
    double ic = InformationContent(network, ancestor);
    if (ic > best_ic) best_ic = ic;
  }
  if (best_ic < 0.0) return 0.0;  // unrelated
  double denom = InformationContent(network, a) +
                 InformationContent(network, b);
  if (denom <= 0.0) return 0.0;
  double sim = 2.0 * best_ic / denom;
  return sim > 1.0 ? 1.0 : sim;
}

double LegacyResnik(const wordnet::SemanticNetwork& network,
                    wordnet::ConceptId a, wordnet::ConceptId b) {
  if (a == b) return 1.0;
  auto da = network.AncestorDistances(a);
  auto db = network.AncestorDistances(b);
  double total = network.TotalFrequency();
  if (total <= 0.0) return 0.0;
  double best_ic = -1.0;
  for (const auto& [ancestor, dist] : da) {
    (void)dist;
    if (db.find(ancestor) == db.end()) continue;
    double p = network.CumulativeFrequency(ancestor) / total;
    double ic = (p <= 0.0 || p >= 1.0) ? 0.0 : -std::log(p);
    best_ic = std::max(best_ic, ic);
  }
  if (best_ic < 0.0) return 0.0;  // unrelated
  double ic_max = -std::log(1.0 / total);
  if (ic_max <= 0.0) return 0.0;
  return std::min(1.0, best_ic / ic_max);
}

std::vector<std::string> ExtendedGloss(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId id) {
  std::string combined = network.GetConcept(id).gloss;
  for (const wordnet::Edge& edge : network.GetConcept(id).edges) {
    switch (edge.relation) {
      case wordnet::Relation::kHypernym:
      case wordnet::Relation::kInstanceHypernym:
      case wordnet::Relation::kHyponym:
      case wordnet::Relation::kInstanceHyponym:
      case wordnet::Relation::kMemberMeronym:
      case wordnet::Relation::kPartMeronym:
      case wordnet::Relation::kSubstanceMeronym:
      case wordnet::Relation::kMemberHolonym:
      case wordnet::Relation::kPartHolonym:
      case wordnet::Relation::kSubstanceHolonym:
        combined += ' ';
        combined += network.GetConcept(edge.target).gloss;
        break;
      default:
        break;
    }
  }
  std::vector<std::string> tokens = text::Tokenize(combined);
  tokens = text::RemoveStopWords(tokens);
  for (std::string& token : tokens) token = text::PorterStem(token);
  return tokens;
}

double PhraseOverlapScore(std::vector<std::string> a,
                          std::vector<std::string> b) {
  // Quadratic-time LCS-substring via dynamic programming per round; the
  // extended glosses are short (tens of tokens).
  double score = 0.0;
  while (!a.empty() && !b.empty()) {
    size_t best_len = 0;
    size_t best_a = 0;
    size_t best_b = 0;
    std::vector<std::vector<size_t>> dp(
        a.size() + 1, std::vector<size_t>(b.size() + 1, 0));
    for (size_t i = 1; i <= a.size(); ++i) {
      for (size_t j = 1; j <= b.size(); ++j) {
        if (a[i - 1] == b[j - 1]) {
          dp[i][j] = dp[i - 1][j - 1] + 1;
          if (dp[i][j] > best_len) {
            best_len = dp[i][j];
            best_a = i - best_len;
            best_b = j - best_len;
          }
        }
      }
    }
    if (best_len == 0) break;
    score += static_cast<double>(best_len) * static_cast<double>(best_len);
    a.erase(a.begin() + static_cast<long>(best_a),
            a.begin() + static_cast<long>(best_a + best_len));
    b.erase(b.begin() + static_cast<long>(best_b),
            b.begin() + static_cast<long>(best_b + best_len));
  }
  return score;
}

double LegacyGlossOverlap(const wordnet::SemanticNetwork& network,
                          wordnet::ConceptId a, wordnet::ConceptId b) {
  if (a == b) return 1.0;
  std::vector<std::string> gloss_a = ExtendedGloss(network, a);
  std::vector<std::string> gloss_b = ExtendedGloss(network, b);
  size_t min_len = std::min(gloss_a.size(), gloss_b.size());
  if (min_len == 0) return 0.0;
  double raw = PhraseOverlapScore(std::move(gloss_a), std::move(gloss_b));
  double norm = static_cast<double>(min_len) * static_cast<double>(min_len);
  double sim = raw / norm;
  return sim > 1.0 ? 1.0 : sim;
}

double LegacyConceptualDensity(const wordnet::SemanticNetwork& network,
                               wordnet::ConceptId a, wordnet::ConceptId b) {
  if (a == b) return 1.0;
  std::unordered_map<wordnet::ConceptId, int> da =
      network.AncestorDistances(a);
  std::unordered_map<wordnet::ConceptId, int> db =
      network.AncestorDistances(b);
  // Counts for the common subsumers only, from per-concept closure
  // walks — the quantities a finalized network's table accumulates.
  std::unordered_map<wordnet::ConceptId, std::pair<uint32_t, uint32_t>>
      counts;  // subsumer -> (descendants, children)
  for (const auto& [anc, dist] : da) {
    if (db.count(anc) != 0) counts.emplace(anc, std::make_pair(0u, 0u));
  }
  if (counts.empty()) return 0.0;
  const int n = static_cast<int>(network.size());
  for (wordnet::ConceptId j = 0; j < n; ++j) {
    for (const auto& [anc, dist] : network.AncestorDistances(j)) {
      auto it = counts.find(anc);
      if (it == counts.end()) continue;
      ++it->second.first;
      if (dist == 1) ++it->second.second;
    }
  }
  double best = 0.0;
  for (const auto& [anc, dc] : counts) {
    best = std::max(best, DensityAt(dc.second, dc.first));
  }
  return best;
}

}  // namespace xsdf::oracles
