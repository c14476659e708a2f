#include "oracles/dom_tree_builder.h"

#include <algorithm>
#include <string>

#include "oracles/tokenizer_reference.h"
#include "text/preprocess.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace xsdf::oracles {
namespace {

/// One walk over one document. Add* return false once a node could not
/// be appended, which aborts the walk.
class DomWalk {
 public:
  DomWalk(bool include_values, uint64_t label_source,
          const TagResolver& resolve_tag, const ValueResolver& tokenize)
      : include_values_(include_values),
        resolve_tag_(resolve_tag),
        tokenize_(tokenize),
        tree_(label_source) {}

  /// Appends `root` and its subtree under `parent`. The walk keeps an
  /// explicit stack, so a deep document does not recurse.
  bool AddElement(xml::NodeId parent, const Node& root) {
    struct Frame {
      const Node* element;
      xml::NodeId id;
      size_t next_child;
    };
    std::vector<Frame> open;
    auto open_element = [&](xml::NodeId under, const Node& element) {
      const xml::NodeId id = AddStartTag(under, element);
      if (id == xml::kInvalidNode) return false;
      open.push_back({&element, id, 0});
      return true;
    };
    if (!open_element(parent, root)) return false;
    while (!open.empty()) {
      Frame& frame = open.back();
      const std::vector<Node*>& children = frame.element->children();
      if (frame.next_child == children.size()) {
        open.pop_back();
        continue;
      }
      const Node& child = *children[frame.next_child++];
      const xml::NodeId id = frame.id;
      if (child.is_element()) {
        if (!open_element(id, child)) return false;
      } else if (child.is_text()) {
        if (!AddTokens(id, child.text())) return false;
      }
    }
    return true;
  }

  xml::LabeledTree Finish() { return tree_.Finish(); }

 private:
  /// Appends `element` and its attributes, sorted by name, each
  /// followed by its value tokens; returns the element's id.
  xml::NodeId AddStartTag(xml::NodeId parent, const Node& element) {
    const xml::NodeId id =
        AddTag(parent, element.name(), xml::TreeNodeKind::kElement);
    if (id == xml::kInvalidNode) return id;
    std::vector<const Attribute*> attrs;
    for (const Attribute& attr : element.attributes()) {
      attrs.push_back(&attr);
    }
    std::sort(attrs.begin(), attrs.end(),
              [](const Attribute* a, const Attribute* b) {
                return a->name < b->name;
              });
    for (const Attribute* attr : attrs) {
      const xml::NodeId attr_id =
          AddTag(id, attr->name, xml::TreeNodeKind::kAttribute);
      if (attr_id == xml::kInvalidNode || !AddTokens(attr_id, attr->value)) {
        return xml::kInvalidNode;
      }
    }
    return id;
  }

  xml::NodeId AddTag(xml::NodeId parent, const std::string& raw,
                     xml::TreeNodeKind kind) {
    const core::ResolvedLabel& resolved = resolve_tag_(raw);
    return tree_.AddNode(parent, resolved.label, resolved.id, kind, raw);
  }

  bool AddTokens(xml::NodeId parent, const std::string& text) {
    if (!include_values_) return true;
    for (const core::ResolvedLabel& token : tokenize_(text)) {
      if (token.label.empty()) continue;
      if (tree_.AddNode(parent, token.label, token.id,
                        xml::TreeNodeKind::kToken,
                        token.label) == xml::kInvalidNode) {
        return false;
      }
    }
    return true;
  }

  bool include_values_;
  const TagResolver& resolve_tag_;
  const ValueResolver& tokenize_;
  xml::LabeledTreeBuilder tree_;
};

}  // namespace

Result<xml::LabeledTree> BuildTreeViaDom(const Document& doc,
                                         bool include_values,
                                         uint64_t label_source,
                                         const TagResolver& resolve_tag,
                                         const ValueResolver& tokenize) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root element");
  }
  DomWalk walk(include_values, label_source, resolve_tag, tokenize);
  if (!walk.AddElement(xml::kInvalidNode, *doc.root())) {
    return Status::Internal("labeled tree construction failed");
  }
  return walk.Finish();
}

Result<xml::LabeledTree> BuildTreeViaDom(
    const Document& doc, const wordnet::SemanticNetwork& network,
    bool include_values, core::LabelSpace* label_space,
    core::TreeBuildCache* cache) {
  if (label_space == nullptr) {
    return Status::InvalidArgument("BuildTreeViaDom requires a label space");
  }
  core::TreeBuildCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  const TagResolver resolve_tag =
      [&](std::string_view tag) -> const core::ResolvedLabel& {
    return core::ResolveTagMemo(*cache, network, *label_space, tag);
  };
  const text::LexiconProbe probe = [&network](const std::string& lemma) {
    return network.Contains(lemma);
  };
  std::vector<core::ResolvedLabel> value_tokens;
  const ValueResolver tokenize = [&](std::string_view value)
      -> const std::vector<core::ResolvedLabel>& {
    value_tokens.clear();
    for (const std::string& token : ReferenceTokenize(value)) {
      if (text::IsStopWord(token)) continue;
      if (!text::HasLetter(token)) continue;  // drop pure numbers
      core::ResolvedLabel& resolved = value_tokens.emplace_back();
      resolved.label = text::NormalizeToken(token, probe);
      if (!resolved.label.empty()) {
        resolved.id = label_space->Resolve(resolved.label);
      }
    }
    return value_tokens;
  };
  return BuildTreeViaDom(doc, include_values, label_space->serial(),
                         resolve_tag, tokenize);
}

}  // namespace xsdf::oracles
