#include "core/tree_builder.h"

#include "core/label_space.h"
#include "text/preprocess.h"
#include "text/stopwords.h"

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

const ResolvedLabel& ResolveTokenMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace& label_space, std::string_view token) {
  auto it = cache.tokens.find(token);
  if (it != cache.tokens.end()) return it->second;
  it = cache.tokens.emplace(std::string(token), ResolvedLabel()).first;
  if (text::IsStopWord(token)) return it->second;
  text::LexiconProbe probe = [&network](const std::string& lemma) {
    return network.Contains(lemma);
  };
  it->second.label = text::NormalizeToken(token, probe);
  // Tokens that normalize to nothing never become nodes, so they are
  // never interned (matches the per-node path).
  if (!it->second.label.empty()) {
    it->second.id = label_space.Resolve(it->second.label);
  }
  return it->second;
}

}  // namespace xsdf::core
