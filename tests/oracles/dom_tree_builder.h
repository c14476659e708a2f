#ifndef XSDF_TESTS_ORACLES_DOM_TREE_BUILDER_H_
#define XSDF_TESTS_ORACLES_DOM_TREE_BUILDER_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/label_space.h"
#include "core/tree_builder.h"
#include "wordnet/semantic_network.h"
#include "oracles/dom.h"
#include "xml/labeled_tree.h"

namespace xsdf::oracles {

/// Maps a raw element or attribute name to its node label and id. The
/// returned reference must stay valid until the next call.
using TagResolver =
    std::function<const core::ResolvedLabel&(std::string_view raw_tag)>;

/// Maps a raw text value to its token labels and ids, one leaf node
/// each (tokens with an empty label are skipped), under the same
/// reference-lifetime contract.
using ValueResolver = std::function<const std::vector<core::ResolvedLabel>&(
    std::string_view value)>;

/// The DOM walk core::BuildTreeStreaming replaced: the rooted ordered
/// labeled tree of Definition 1 read off a parsed document — the
/// element, then its attributes sorted by name each followed by its
/// value tokens, then its content (text tokens and sub-elements) in
/// document order. `include_values` false drops every token
/// (structure-only, paper §3.1). The tree records `label_source` as
/// its label_source(). A document without a root is InvalidArgument; a
/// resolver id the tree cannot hold is Internal.
Result<xml::LabeledTree> BuildTreeViaDom(const Document& doc,
                                         bool include_values,
                                         uint64_t label_source,
                                         const TagResolver& resolve_tag,
                                         const ValueResolver& tokenize);

/// The walk with independent value tokens: tag names go through the
/// production hook core::ResolveTagMemo (through `cache`, or a cache
/// local to the call when it is null), while each text value is split
/// by ReferenceTokenize() and every token stop-word filtered, dropped
/// without a letter and normalized directly, with no memo. Labels are
/// interned through `label_space` in walk order: on the same input,
/// core::BuildTreeStreaming must return this tree, label ids and
/// interning order included.
Result<xml::LabeledTree> BuildTreeViaDom(
    const Document& doc, const wordnet::SemanticNetwork& network,
    bool include_values, core::LabelSpace* label_space,
    core::TreeBuildCache* cache = nullptr);

}  // namespace xsdf::oracles

#endif  // XSDF_TESTS_ORACLES_DOM_TREE_BUILDER_H_
