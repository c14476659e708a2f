#ifndef XSDF_TESTS_ORACLES_DOM_H_
#define XSDF_TESTS_ORACLES_DOM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/parser.h"
#include "xml/path_query.h"

/// The reference document model: a DOM materialized from
/// xml::StreamParse events, its serializer, and the recursive path
/// matcher. Production reads documents only as events (the tree
/// builder, `xsdf query`) and writes XML forward (the generators, the
/// semantic-tree writer); tests, fuzz harnesses and benchmarks hold
/// those paths to this model.
namespace xsdf::oracles {

/// Kind of a DOM node. StreamParse surfaces no comments, processing
/// instructions or declaration, so the DOM holds none.
enum class NodeKind {
  kElement,
  kText,
  kCData,
};

/// A single name="value" attribute on an element.
struct Attribute {
  std::string name;
  std::string value;
};

/// One node of a parsed document. Elements link to their children by
/// pointer, in document order; the owning Document holds every node.
class Node {
 public:
  explicit Node(NodeKind kind) : kind_(kind) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind() const { return kind_; }
  bool is_element() const { return kind_ == NodeKind::kElement; }
  bool is_text() const {
    return kind_ == NodeKind::kText || kind_ == NodeKind::kCData;
  }

  /// Element tag name; empty for text and CDATA.
  const std::string& name() const { return name_; }
  /// Character content of a text or CDATA node.
  const std::string& text() const { return text_; }

  const std::vector<Attribute>& attributes() const { return attributes_; }
  void AddAttribute(std::string name, std::string value) {
    attributes_.push_back({std::move(name), std::move(value)});
  }
  /// Returns the value of attribute `name`, or nullptr when absent.
  const std::string* FindAttribute(std::string_view name) const;

  /// Children in document order.
  const std::vector<Node*>& children() const { return children_; }

  /// First child element with the given tag name, or nullptr.
  const Node* FindChildElement(std::string_view name) const;
  /// All child elements with the given tag name.
  std::vector<const Node*> FindChildElements(std::string_view name) const;

  /// Concatenation of all descendant text and CDATA content.
  std::string InnerText() const;

  /// Number of element children.
  size_t ElementChildCount() const;

 private:
  friend class Document;

  NodeKind kind_;
  std::string name_;
  std::string text_;
  std::vector<Attribute> attributes_;
  std::vector<Node*> children_;
};

/// A document: one root element and its subtree. Nodes are owned in
/// one flat list, so destroying a deep document does not recurse, and
/// node pointers survive moving the document.
class Document {
 public:
  Document() = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  const Node* root() const { return root_; }

  /// Appends an element named `name` under `parent`, or makes it the
  /// root when `parent` is null.
  Node* AddElement(Node* parent, std::string name);
  /// Appends a text (or CDATA) child holding `text` to `parent`.
  Node* AddText(Node* parent, std::string text,
                NodeKind kind = NodeKind::kText);

  /// Total number of element nodes.
  size_t CountElements() const;

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  Node* root_ = nullptr;
};

/// Materializes `input` from xml::StreamParse events: every accepted
/// input yields its DOM, every rejected one StreamParse's Status.
Result<Document> ParseDom(std::string_view input,
                          const xml::ParseOptions& options = {});

/// Reads the file at `path` (IoError "cannot open file: ..." when it
/// cannot) and parses it with ParseDom.
Result<Document> ParseDomFile(const std::string& path,
                              const xml::ParseOptions& options = {});

/// Options of the DOM serializer.
struct SerializeOptions {
  /// Indent child elements by this many spaces per level; 0 emits a
  /// single line.
  int indent = 2;
  /// Emit the `<?xml version="1.0"?>` declaration.
  bool declaration = true;
};

/// Serializes the document: the declaration line, then the root. An
/// element without children is self-closed, one whose children are all
/// text or CDATA is written inline, and otherwise each child goes on
/// its own line, indented `indent` spaces per level.
std::string SerializeDom(const Document& doc,
                         const SerializeOptions& options = {});

/// Deep structural equality of two documents: same element names,
/// attributes (name, value, order), text/CDATA content (runs of
/// adjacent text nodes compared as one) and child structure. On
/// mismatch returns false and, when `diff` is non-null, describes the
/// first difference.
bool StructurallyEqual(const Document& a, const Document& b,
                       std::string* diff = nullptr);

/// The recursive path matcher xml::PathQuery::Evaluate replaced: every
/// element of `doc` the query matches, each once, in document order.
std::vector<const Node*> MatchPath(const xml::PathQuery& query,
                                   const Document& doc);

}  // namespace xsdf::oracles

#endif  // XSDF_TESTS_ORACLES_DOM_H_
