#include "core/tree_builder.h"

#include "core/label_space.h"
#include "text/preprocess.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace xsdf::core {

const ResolvedLabel& ResolveTagMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace& label_space, std::string_view tag) {
  auto it = cache.tags.find(tag);
  if (it != cache.tags.end()) return it->second;
  it = cache.tags.emplace(std::string(tag), ResolvedLabel()).first;
  text::LexiconProbe probe = [&network](const std::string& lemma) {
    return network.Contains(lemma);
  };
  it->second.label = text::PreprocessTagName(tag, probe).label;
  it->second.id = label_space.Resolve(it->second.label);
  return it->second;
}

const std::vector<ResolvedLabel>& TokenizeValueMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace& label_space, std::string_view value) {
  // Two-level value memo: whole values repeat less than their tokens,
  // so a miss on the value still reuses each token's (pure)
  // normalization + interning. The composition below is
  // PreprocessTextValue() step for step, and interning on first sight
  // of a label follows build order exactly as per-node resolution
  // would, so memoized output is identical to the direct call.
  auto it = cache.values.find(value);
  if (it != cache.values.end()) return it->second;
  if (cache.values.size() >= TreeBuildCache::kMaxValues) {
    cache.values.clear();
  }
  it = cache.values.emplace(std::string(value),
                            std::vector<ResolvedLabel>())
           .first;
  text::LexiconProbe probe = [&network](const std::string& lemma) {
    return network.Contains(lemma);
  };
  const std::vector<std::string> tokens = text::Tokenize(value);
  it->second.reserve(tokens.size());
  for (const std::string& token : tokens) {
    if (text::IsStopWord(token)) continue;
    if (!text::HasLetter(token)) continue;  // drop pure numbers
    auto [tit, tinserted] = cache.tokens.try_emplace(token);
    if (tinserted) {
      tit->second.label = text::NormalizeToken(token, probe);
      // Tokens that normalize to nothing never become nodes, so
      // they are never interned (matches the per-node path).
      if (!tit->second.label.empty()) {
        tit->second.id = label_space.Resolve(tit->second.label);
      }
    }
    it->second.push_back(tit->second);
  }
  return it->second;
}

}  // namespace xsdf::core
