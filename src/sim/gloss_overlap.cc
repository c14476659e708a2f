#include "sim/gloss_overlap.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/simd.h"

namespace xsdf::sim {

double GlossOverlapMeasure::PhraseOverlapScoreIds(
    std::span<const uint32_t> a, std::span<const uint32_t> b) {
  // Each round fills the longest-common-substring DP row-major and
  // keeps the first longest run it meets, so ties break toward the
  // earliest phrase in `a`, then in `b`. Flat per-thread buffers hold
  // the table and the shrinking sequences.
  thread_local std::vector<uint32_t> va;
  thread_local std::vector<uint32_t> vb;
  thread_local std::vector<uint32_t> dp;
  va.assign(a.begin(), a.end());
  vb.assign(b.begin(), b.end());
  double score = 0.0;
  while (!va.empty() && !vb.empty()) {
    const size_t cols = vb.size() + 1;
    dp.assign((va.size() + 1) * cols, 0);
    size_t best_len = 0;
    size_t best_a = 0;
    size_t best_b = 0;
    for (size_t i = 1; i <= va.size(); ++i) {
      for (size_t j = 1; j <= vb.size(); ++j) {
        if (va[i - 1] == vb[j - 1]) {
          uint32_t run = dp[(i - 1) * cols + (j - 1)] + 1;
          dp[i * cols + j] = run;
          if (run > best_len) {
            best_len = run;
            best_a = i - best_len;
            best_b = j - best_len;
          }
        }
      }
    }
    if (best_len == 0) break;
    score += static_cast<double>(best_len) * static_cast<double>(best_len);
    va.erase(va.begin() + static_cast<long>(best_a),
             va.begin() + static_cast<long>(best_a + best_len));
    vb.erase(vb.begin() + static_cast<long>(best_b),
             vb.begin() + static_cast<long>(best_b + best_len));
  }
  return score;
}

namespace {

/// True when the two sorted id sets share at least one element — the
/// SIMD early-exit intersect probe (identical verdict at every
/// dispatch level; pure integer work, so no score can change).
bool SortedBagsIntersect(std::span<const uint32_t> a,
                         std::span<const uint32_t> b) {
  return simd::SortedIntersectNonEmptyU32(a.data(), a.size(), b.data(),
                                          b.size());
}

}  // namespace

double GlossOverlapMeasure::Similarity(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId a,
    wordnet::ConceptId b) const {
  XSDF_DCHECK(network.finalized(), "similarity needs a finalized network");
  if (a == b) return 1.0;
  std::span<const uint32_t> gloss_a = network.GlossTokens(a);
  std::span<const uint32_t> gloss_b = network.GlossTokens(b);
  size_t min_len = std::min(gloss_a.size(), gloss_b.size());
  if (min_len == 0) return 0.0;
  // Disjoint bags ⇒ the phrase DP would find nothing; 0/norm == 0.0
  // exactly, so the early exit cannot change a score.
  if (!SortedBagsIntersect(network.GlossTokenBag(a),
                           network.GlossTokenBag(b))) {
    return 0.0;
  }
  double raw = PhraseOverlapScoreIds(gloss_a, gloss_b);
  double norm = static_cast<double>(min_len) * static_cast<double>(min_len);
  double sim = raw / norm;
  return sim > 1.0 ? 1.0 : sim;
}

}  // namespace xsdf::sim
