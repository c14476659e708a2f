#ifndef XSDF_CORE_STREAMING_BUILDER_H_
#define XSDF_CORE_STREAMING_BUILDER_H_

#include <cstddef>
#include <string_view>

#include "common/result.h"
#include "core/tree_builder.h"
#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"
#include "xml/parser.h"

namespace xsdf::core {

/// Memory accounting for one streaming build.
struct StreamingBuildStats {
  /// High-water mark of the builder's transient scaffolding (the
  /// open-element stack plus the staged attributes of the element
  /// currently being opened; text is tokenized straight from the
  /// parser's views) — what replaces the DOM + arena a two-pass
  /// parse-then-walk build keeps resident. Bounded by tree depth plus
  /// one start tag, not document size.
  size_t scaffold_peak_bytes = 0;
};

/// The front end: parses `xml_text` with `xml::StreamParse` and builds
/// the rooted ordered labeled tree of Definition 1 directly from the
/// open/attribute/text/close event stream, never materializing a DOM.
/// XSDF's linguistic pre-processing (paper §3.2) runs through the
/// `TreeBuildCache` memos (ResolveTagMemo for element and attribute
/// names, ResolveTokenMemo for each lettered word text::TokenScanner
/// finds in a text value), and nodes are emitted in
/// Definition 1's order — element, then attributes sorted by name each
/// followed by its value tokens, then content in document order.
/// `include_values` selects structure-and-content (true) vs
/// structure-only (false) processing (paper §3.1). A DOM walk in
/// tests/oracles/ is the independent reference: tests/streaming_test.cc
/// and the fuzz_frontend target hold this builder to it node for node,
/// label id for label id, and tests/frontend_test.cc holds its labels
/// and context vectors to the unmemoized per-node pre-processing.
///
/// Every node's label is interned through `label_space`, which the
/// tree records as its label_source(): only a disambiguator reading
/// through the same space accepts it. A null space is InvalidArgument.
/// Pre-processing is memoized through `cache` across calls when the
/// caller passes one (single-threaded use), else per document. Parse
/// failures and limit violations return the parser's Status unchanged.
Result<xml::LabeledTree> BuildTreeStreaming(
    std::string_view xml_text, const wordnet::SemanticNetwork& network,
    const xml::ParseOptions& parse_options, bool include_values,
    LabelSpace* label_space, TreeBuildCache* cache = nullptr,
    StreamingBuildStats* stats = nullptr);

}  // namespace xsdf::core

#endif  // XSDF_CORE_STREAMING_BUILDER_H_
