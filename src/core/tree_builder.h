#ifndef XSDF_CORE_TREE_BUILDER_H_
#define XSDF_CORE_TREE_BUILDER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

class LabelSpace;

/// Cross-document memo for BuildTree's pure pre-processing and
/// interning. XML corpora share one vocabulary across documents, so a
/// persistent cache turns tag stemming, token normalization, AND label
/// interning into a single hash probe per node after the first few
/// documents. Entries key raw input text and hold outputs identical to
/// the direct computation, so cached and uncached builds produce
/// byte-identical trees with identical label ids. Lookups take string
/// views, so a hit copies nothing.
///
/// Not thread-safe, and valid only for one (semantic network, label
/// space) pairing — the probe the normalizers consult and the interner
/// the ids come from: callers building trees concurrently keep one
/// cache per worker, as the runtime engine does.
struct TreeBuildCache {
  /// Whole-value entries `values` may hold: TokenizeValueMemo clears
  /// the level when it is full, so a resident worker fed distinct text
  /// stays bounded (~200 heap bytes per entry). Above the ~59k distinct
  /// values of the two 2 MB generated giant documents together.
  static constexpr size_t kMaxValues = size_t{1} << 17;

  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename Value>
  using Memo = std::unordered_map<std::string, Value, Hash, std::equal_to<>>;

  /// raw tag name -> preprocessed node label + interned id.
  Memo<xml::ResolvedLabel> tags;
  /// raw text value -> preprocessed, interned token list.
  Memo<std::vector<xml::ResolvedLabel>> values;
  /// raw token -> normalized token (second level under `values`).
  Memo<xml::ResolvedLabel> tokens;
};

/// Memoized raw-tag -> (preprocessed label, interned id) mapping: the
/// exact hook BuildTree installs as resolved_label_transform, exposed
/// so the streaming front end interns through the same memo and the
/// two builders stay byte- and id-identical. The returned reference is
/// a cache entry — valid until the cache is destroyed.
const xml::ResolvedLabel& ResolveTagMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace& label_space, std::string_view tag);

/// Memoized raw-value -> preprocessed, interned token list (BuildTree's
/// resolved_value_tokenizer hook), under the same sharing contract as
/// ResolveTagMemo, except that the reference is valid only until the
/// next call: the whole-value level is cleared when it holds
/// TreeBuildCache::kMaxValues entries. That level only memoizes labels
/// the token level already interned, so clearing it changes no tree or
/// id. Tokens that normalize to nothing keep an empty label and are
/// never interned; builders skip them.
const std::vector<xml::ResolvedLabel>& TokenizeValueMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace& label_space, std::string_view value);

/// Splits a node label into the lemma tokens that carry its senses:
/// a label the network knows as one lemma (including collocations like
/// "first_name") is a single token; otherwise an underscore-joined
/// compound is split into its constituent tokens (paper §3.2's
/// unresolved-compound case, whose senses are combined by Eqs. 10/12).
std::vector<std::string> LabelSenseTokens(
    const wordnet::SemanticNetwork& network, const std::string& label);

/// Builds the rooted ordered labeled tree of an XML document with
/// XSDF's linguistic pre-processing (paper §3.2) plugged in:
/// tag names go through compound splitting + lexicon-aware stemming,
/// text values through tokenization + stop-word removal + stemming.
/// `include_values` selects structure-and-content (true) vs
/// structure-only (false) processing (paper §3.1).
///
/// Every node's label is interned through `label_space`, which the
/// tree records as its label_source(): only a disambiguator reading
/// through the same space accepts it. A null space is InvalidArgument.
///
/// Pre-processing results are memoized (XML vocabularies repeat tags
/// and values heavily): through `cache` across calls when the caller
/// passes one, else per document.
Result<xml::LabeledTree> BuildTree(const xml::Document& doc,
                                   const wordnet::SemanticNetwork& network,
                                   bool include_values,
                                   LabelSpace* label_space,
                                   TreeBuildCache* cache = nullptr);

/// Same, from an XML string (parse + build).
Result<xml::LabeledTree> BuildTreeFromXml(
    const std::string& xml_text, const wordnet::SemanticNetwork& network,
    bool include_values, LabelSpace* label_space,
    TreeBuildCache* cache = nullptr);

}  // namespace xsdf::core

#endif  // XSDF_CORE_TREE_BUILDER_H_
