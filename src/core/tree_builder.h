#ifndef XSDF_CORE_TREE_BUILDER_H_
#define XSDF_CORE_TREE_BUILDER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

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
/// interning into a single hash probe per tag or word after the first
/// few documents. Entries key raw input text and hold outputs identical
/// to the direct computation, so cached and uncached builds produce
/// byte-identical trees with identical label ids. Lookups take string
/// views, so a hit copies nothing.
///
/// Text values are not memoized whole: they repeat far less than their
/// words (the two 2 MB generated giant documents hold ~59k distinct
/// values over 24 distinct lettered words), so the builder scans each
/// value and probes `tokens` once per word. Letterless tokens (pure
/// numbers) are dropped before the probe, so `tokens` grows only with
/// the lettered vocabulary a worker sees.
///
/// Not thread-safe, and valid only for one (semantic network, label
/// space) pairing — the probe the normalizers consult and the interner
/// the ids come from: callers building trees concurrently keep one
/// cache per worker, as the runtime engine does.
struct TreeBuildCache {
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
  /// lowercase lettered word -> normalized token label + interned id;
  /// a stop word, or a word that normalizes to nothing, is kept as a
  /// skip entry with an empty label.
  Memo<ResolvedLabel> tokens;
};

/// Memoized raw-tag -> (preprocessed label, interned id) mapping:
/// BuildTreeStreaming's label hook for element and attribute names.
/// The returned reference is a cache entry — valid until the cache is
/// destroyed.
const ResolvedLabel& ResolveTagMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace& label_space, std::string_view tag);

/// Memoized word -> (normalized token label, interned id) mapping: the
/// value hook, applied to every lettered token text::TokenScanner finds
/// in a text value. `token` is lowercase and holds a letter. The
/// composition is text::PreprocessTextValue()'s per token — stop words
/// dropped, the rest normalized — and a label is interned on first
/// sight, in build order, exactly as per-node resolution would. A stop
/// word or a token that normalizes to nothing gets an empty label and
/// no id; the builder skips it. The reference is valid until the cache
/// is destroyed.
const ResolvedLabel& ResolveTokenMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace& label_space, std::string_view token);

}  // namespace xsdf::core

#endif  // XSDF_CORE_TREE_BUILDER_H_
