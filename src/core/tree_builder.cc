#include "core/tree_builder.h"

#include "common/strings.h"
#include "core/label_space.h"
#include "text/preprocess.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "xml/parser.h"

namespace xsdf::core {

std::vector<std::string> LabelSenseTokens(
    const wordnet::SemanticNetwork& network, const std::string& label) {
  if (label.empty()) return {};
  if (network.Contains(label)) return {label};
  if (label.find('_') == std::string::npos) return {label};
  std::vector<std::string> tokens;
  for (std::string& token : StrSplit(label, '_')) {
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  return tokens;
}

const xml::ResolvedLabel& ResolveTagMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace& label_space, std::string_view tag) {
  auto it = cache.tags.find(tag);
  if (it != cache.tags.end()) return it->second;
  it = cache.tags.emplace(std::string(tag), xml::ResolvedLabel()).first;
  text::LexiconProbe probe = [&network](const std::string& lemma) {
    return network.Contains(lemma);
  };
  it->second.label = text::PreprocessTagName(tag, probe).label;
  it->second.id = label_space.Resolve(it->second.label);
  return it->second;
}

const std::vector<xml::ResolvedLabel>& TokenizeValueMemo(
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
                            std::vector<xml::ResolvedLabel>())
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

Result<xml::LabeledTree> BuildTree(const xml::Document& doc,
                                   const wordnet::SemanticNetwork& network,
                                   bool include_values,
                                   LabelSpace* label_space,
                                   TreeBuildCache* cache) {
  if (label_space == nullptr) {
    return Status::InvalidArgument("BuildTree requires a label space");
  }
  // Documents repeat the same raw tags and values over and over, so
  // the (pure) pre-processing functions are memoized: into the
  // caller's persistent cache when one is passed (cross-document
  // reuse), else into a local one that dies with this build. The
  // build is synchronous, so the hooks capture the cache by pointer.
  TreeBuildCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  xml::TreeBuildOptions options;
  options.include_values = include_values;
  options.resolved_label_transform =
      [&network, cache, label_space](
          const std::string& tag) -> const xml::ResolvedLabel& {
    return ResolveTagMemo(*cache, network, *label_space, tag);
  };
  options.resolved_value_tokenizer =
      [&network, cache, label_space](const std::string& value)
      -> const std::vector<xml::ResolvedLabel>& {
    return TokenizeValueMemo(*cache, network, *label_space, value);
  };
  return xml::BuildLabeledTree(doc, options, label_space->serial());
}

Result<xml::LabeledTree> BuildTreeFromXml(
    const std::string& xml_text, const wordnet::SemanticNetwork& network,
    bool include_values, LabelSpace* label_space, TreeBuildCache* cache) {
  auto doc = xml::Parse(xml_text);
  if (!doc.ok()) return doc.status();
  return BuildTree(*doc, network, include_values, label_space, cache);
}

}  // namespace xsdf::core
