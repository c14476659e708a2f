#include "oracles/dom.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/strings.h"
#include "xml/escape.h"

namespace xsdf::oracles {

const std::string* Node::FindAttribute(std::string_view name) const {
  for (const Attribute& attr : attributes_) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

const Node* Node::FindChildElement(std::string_view name) const {
  for (const Node* child : children_) {
    if (child->is_element() && child->name() == name) return child;
  }
  return nullptr;
}

std::vector<const Node*> Node::FindChildElements(
    std::string_view name) const {
  std::vector<const Node*> out;
  for (const Node* child : children_) {
    if (child->is_element() && child->name() == name) out.push_back(child);
  }
  return out;
}

std::string Node::InnerText() const {
  std::string out;
  std::vector<const Node*> pending = {this};
  while (!pending.empty()) {
    const Node* node = pending.back();
    pending.pop_back();
    if (node->is_text()) out += node->text_;
    pending.insert(pending.end(), node->children_.rbegin(),
                   node->children_.rend());
  }
  return out;
}

size_t Node::ElementChildCount() const {
  size_t n = 0;
  for (const Node* child : children_) {
    if (child->is_element()) ++n;
  }
  return n;
}

Node* Document::AddElement(Node* parent, std::string name) {
  Node* node = nodes_.emplace_back(std::make_unique<Node>(NodeKind::kElement))
                   .get();
  node->name_ = std::move(name);
  if (parent == nullptr) {
    root_ = node;
  } else {
    parent->children_.push_back(node);
  }
  return node;
}

Node* Document::AddText(Node* parent, std::string text, NodeKind kind) {
  Node* node = nodes_.emplace_back(std::make_unique<Node>(kind)).get();
  node->text_ = std::move(text);
  parent->children_.push_back(node);
  return node;
}

size_t Document::CountElements() const {
  size_t n = 0;
  for (const auto& node : nodes_) {
    if (node->is_element()) ++n;
  }
  return n;
}

namespace {

/// Attaches every event to the innermost open element.
class DomSink : public xml::StreamHandler {
 public:
  explicit DomSink(Document* doc) : doc_(doc) {}

  Status OnStartElement(std::string_view name) override {
    open_.push_back(doc_->AddElement(open_.empty() ? nullptr : open_.back(),
                                     std::string(name)));
    return Status::Ok();
  }
  Status OnAttribute(std::string_view name, std::string_view value) override {
    open_.back()->AddAttribute(std::string(name), std::string(value));
    return Status::Ok();
  }
  Status OnText(std::string_view text) override {
    doc_->AddText(open_.back(), std::string(text));
    return Status::Ok();
  }
  Status OnCData(std::string_view text) override {
    doc_->AddText(open_.back(), std::string(text), NodeKind::kCData);
    return Status::Ok();
  }
  Status OnEndElement(std::string_view name) override {
    (void)name;
    open_.pop_back();
    return Status::Ok();
  }

 private:
  Document* doc_;
  std::vector<Node*> open_;
};

void AppendIndent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ');
}

bool HasOnlyTextContent(const Node& node) {
  for (const Node* child : node.children()) {
    if (!child->is_text()) return false;
  }
  return true;
}

/// Appends a text (escaped) or CDATA node.
void AppendCharacterData(const Node& node, std::string* out) {
  if (node.kind() == NodeKind::kCData) {
    out->append("<![CDATA[");
    out->append(node.text());
    out->append("]]>");
  } else {
    xml::AppendEscaped(out, node.text(), /*attribute=*/false);
  }
}

/// Serializes the subtree of element `root` with an explicit stack of
/// open elements, so a deep document does not recurse.
void SerializeElement(const Node& root, const SerializeOptions& options,
                      std::string* out) {
  struct Frame {
    const Node* element;
    size_t next_child;
    bool inline_content;  ///< only text children: no line breaks
  };
  std::vector<Frame> open;
  // Writes a start tag; an element with children stays open.
  auto start = [&](const Node& element) {
    out->push_back('<');
    out->append(element.name());
    for (const Attribute& attr : element.attributes()) {
      out->push_back(' ');
      out->append(attr.name);
      out->append("=\"");
      xml::AppendEscaped(out, attr.value, /*attribute=*/true);
      out->push_back('"');
    }
    if (element.children().empty()) {
      out->append("/>");
      return;
    }
    out->push_back('>');
    open.push_back({&element, 0, HasOnlyTextContent(element)});
  };
  start(root);
  while (!open.empty()) {
    Frame& frame = open.back();
    const int depth = static_cast<int>(open.size()) - 1;
    const std::vector<Node*>& children = frame.element->children();
    if (frame.next_child == children.size()) {
      if (!frame.inline_content) AppendIndent(out, options.indent, depth);
      out->append("</");
      out->append(frame.element->name());
      out->push_back('>');
      open.pop_back();
      continue;
    }
    const Node& child = *children[frame.next_child++];
    if (!frame.inline_content) AppendIndent(out, options.indent, depth + 1);
    if (child.is_element()) {
      start(child);
    } else {
      AppendCharacterData(child, out);
    }
  }
}

/// Children of `node` with runs of consecutive text nodes coalesced.
/// The parser only splits character data at markup boundaries, so two
/// parses of equivalent documents may group the same characters into
/// different numbers of text nodes (e.g. when a dropped comment
/// separated them on the first parse).
struct FlatChild {
  NodeKind kind;
  const Node* node;  // null for coalesced text
  std::string text;
};

std::vector<FlatChild> FlattenChildren(const Node& node) {
  std::vector<FlatChild> out;
  for (const Node* child : node.children()) {
    if (child->kind() == NodeKind::kText) {
      if (!out.empty() && out.back().kind == NodeKind::kText) {
        out.back().text += child->text();
        continue;
      }
      out.push_back({NodeKind::kText, nullptr, child->text()});
    } else {
      out.push_back({child->kind(), child, child->text()});
    }
  }
  return out;
}

/// Compares two element subtrees pair by pair from an explicit stack,
/// in document order, so a deep document does not recurse.
bool ElementsEqual(const Node& a_root, const Node& b_root,
                   std::string* diff) {
  std::vector<std::pair<const Node*, const Node*>> pending = {
      {&a_root, &b_root}};
  while (!pending.empty()) {
    const auto [a, b] = pending.back();
    pending.pop_back();
    auto fail = [&](const std::string& what) {
      if (diff != nullptr) *diff = "element <" + a->name() + ">: " + what;
      return false;
    };
    if (a->name() != b->name()) {
      return fail("name mismatch: " + a->name() + " vs " + b->name());
    }
    if (a->attributes().size() != b->attributes().size()) {
      return fail("attribute count mismatch");
    }
    for (size_t i = 0; i < a->attributes().size(); ++i) {
      if (a->attributes()[i].name != b->attributes()[i].name ||
          a->attributes()[i].value != b->attributes()[i].value) {
        return fail("attribute mismatch at index " + std::to_string(i) +
                    ": " + a->attributes()[i].name);
      }
    }
    std::vector<FlatChild> ca = FlattenChildren(*a);
    std::vector<FlatChild> cb = FlattenChildren(*b);
    if (ca.size() != cb.size()) {
      return fail(StrFormat("child count mismatch: %zu vs %zu", ca.size(),
                            cb.size()));
    }
    const size_t first_child = pending.size();
    for (size_t i = 0; i < ca.size(); ++i) {
      if (ca[i].kind != cb[i].kind) {
        return fail("child kind mismatch at index " + std::to_string(i));
      }
      if (ca[i].kind == NodeKind::kElement) {
        pending.emplace_back(ca[i].node, cb[i].node);
      } else if (ca[i].text != cb[i].text) {
        return fail("text mismatch at index " + std::to_string(i));
      }
    }
    // The first child pair is compared first.
    std::reverse(pending.begin() + static_cast<ptrdiff_t>(first_child),
                 pending.end());
  }
  return true;
}

bool StepMatches(const Node& node, const xml::PathStep& step) {
  if (!node.is_element()) return false;
  if (step.name != "*" && node.name() != step.name) return false;
  if (step.has_attribute_predicate) {
    const std::string* value = node.FindAttribute(step.attribute);
    if (value == nullptr) return false;
    if (step.has_attribute_value && *value != step.attribute_value) {
      return false;
    }
  }
  return true;
}

/// Nodes satisfying steps[index..] with the match attempt starting at
/// `node`. Exponential in the number of descendant steps: a reference,
/// not an evaluator.
void Match(const Node& node, const std::vector<xml::PathStep>& steps,
           size_t index, std::unordered_set<const Node*>* out) {
  if (index >= steps.size()) return;
  const xml::PathStep& step = steps[index];
  if (StepMatches(node, step)) {
    if (index + 1 == steps.size()) {
      out->insert(&node);
    } else {
      for (const Node* child : node.children()) {
        Match(*child, steps, index + 1, out);
      }
    }
  }
  // A descendant step may also start deeper.
  if (step.descendant) {
    for (const Node* child : node.children()) {
      Match(*child, steps, index, out);
    }
  }
}

}  // namespace

Result<Document> ParseDom(std::string_view input,
                          const xml::ParseOptions& options) {
  Document doc;
  DomSink sink(&doc);
  XSDF_RETURN_IF_ERROR(xml::StreamParse(input, &sink, options));
  return doc;
}

Result<Document> ParseDomFile(const std::string& path,
                              const xml::ParseOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseDom(buffer.str(), options);
}

std::string SerializeDom(const Document& doc,
                         const SerializeOptions& options) {
  std::string out;
  if (options.declaration) {
    out.append("<?xml version=\"1.0\"?>");
    if (options.indent > 0) out.push_back('\n');
  }
  if (doc.root() != nullptr) SerializeElement(*doc.root(), options, &out);
  return out;
}

bool StructurallyEqual(const Document& a, const Document& b,
                       std::string* diff) {
  if ((a.root() == nullptr) != (b.root() == nullptr)) {
    if (diff != nullptr) *diff = "one document lacks a root";
    return false;
  }
  if (a.root() == nullptr) return true;
  return ElementsEqual(*a.root(), *b.root(), diff);
}

std::vector<const Node*> MatchPath(const xml::PathQuery& query,
                                   const Document& doc) {
  std::vector<const Node*> out;
  if (doc.root() == nullptr) return out;
  std::unordered_set<const Node*> matched;
  Match(*doc.root(), query.steps(), 0, &matched);
  // Document order is preorder; walk it with an explicit stack.
  std::vector<const Node*> stack = {doc.root()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (matched.count(node) != 0) out.push_back(node);
    const std::vector<Node*>& children = node->children();
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

}  // namespace xsdf::oracles
