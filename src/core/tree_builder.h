#ifndef XSDF_CORE_TREE_BUILDER_H_
#define XSDF_CORE_TREE_BUILDER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

class LabelSpace;

/// A preprocessed node label together with its interned id
/// (xml::kNoLabelId for a token that normalizes to nothing, which the
/// tree builder skips).
struct ResolvedLabel {
  std::string label;
  uint32_t id = xml::kNoLabelId;
};

/// Cross-document memo for the tree builder's pure pre-processing and
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
  Memo<ResolvedLabel> tags;
  /// raw text value -> preprocessed, interned token list.
  Memo<std::vector<ResolvedLabel>> values;
  /// raw token -> normalized token (second level under `values`).
  Memo<ResolvedLabel> tokens;
};

/// Memoized raw-tag -> (preprocessed label, interned id) mapping:
/// BuildTreeStreaming's label hook for element and attribute names.
/// The returned reference is a cache entry — valid until the cache is
/// destroyed.
const ResolvedLabel& ResolveTagMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace& label_space, std::string_view tag);

/// Memoized raw-value -> preprocessed, interned token list (the value
/// hook), under the same sharing contract as ResolveTagMemo, except
/// that the reference is valid only until the next call: the
/// whole-value level is cleared when it holds
/// TreeBuildCache::kMaxValues entries. That level only memoizes labels
/// the token level already interned, so clearing it changes no tree or
/// id. Tokens that normalize to nothing keep an empty label and are
/// never interned; the builder skips them.
const std::vector<ResolvedLabel>& TokenizeValueMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace& label_space, std::string_view value);

}  // namespace xsdf::core

#endif  // XSDF_CORE_TREE_BUILDER_H_
