#include "xml/labeled_tree.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "common/strings.h"
#include "common/token_interner.h"

namespace xsdf::xml {

NodeId LabeledTree::AddNode(NodeId parent, std::string label,
                            uint32_t label_id, TreeNodeKind kind,
                            std::string raw) {
  // Precondition violations are programmer errors, but a release build
  // must not crash on them: callers receive kInvalidNode and can
  // surface a Status (checked builds still stop at the fault).
  if ((parent == kInvalidNode) != nodes_.empty()) {
    XSDF_DCHECK(false,
                "first node must be the root; later nodes need a parent");
    return kInvalidNode;
  }
  if (parent != kInvalidNode &&
      (parent < 0 || static_cast<size_t>(parent) >= nodes_.size())) {
    XSDF_DCHECK(false, "parent id out of range");
    return kInvalidNode;
  }
  if (label_id == kNoLabelId) {
    XSDF_DCHECK(false, "every node needs a label id");
    return kInvalidNode;
  }
  TreeNode node;
  node.id = static_cast<NodeId>(nodes_.size());
  node.label = std::move(label);
  node.raw = std::move(raw);
  node.kind = kind;
  node.parent = parent;
  if (parent != kInvalidNode) {
    node.depth = nodes_[static_cast<size_t>(parent)].depth + 1;
    nodes_[static_cast<size_t>(parent)].children.push_back(node.id);
  }
  nodes_.push_back(std::move(node));
  label_ids_.push_back(label_id);
  max_depth_.store(CachedMax::kUnset);
  max_fan_out_.store(CachedMax::kUnset);
  max_density_.store(CachedMax::kUnset);
  return nodes_.back().id;
}

Status LabeledTree::Validate() const {
  size_t child_links = 0;
  // The id <-> label bijection DistinctChildLabelCount() relies on.
  std::unordered_map<uint32_t, std::string_view> label_of_id;
  std::unordered_map<std::string_view, uint32_t> id_of_label;
  for (const TreeNode& n : nodes_) {
    size_t i = static_cast<size_t>(n.id);
    if (n.id < 0 || i >= nodes_.size() || &nodes_[i] != &n) {
      return Status::Internal(
          StrFormat("node id %d does not match its position", n.id));
    }
    if (n.id == 0) {
      if (n.parent != kInvalidNode || n.depth != 0) {
        return Status::Internal("root node has a parent or nonzero depth");
      }
    } else {
      if (n.parent < 0 || n.parent >= n.id) {
        return Status::Internal(StrFormat(
            "node %d has non-preorder parent %d", n.id, n.parent));
      }
      const TreeNode& p = nodes_[static_cast<size_t>(n.parent)];
      if (n.depth != p.depth + 1) {
        return Status::Internal(
            StrFormat("node %d depth %d != parent depth %d + 1", n.id,
                      n.depth, p.depth));
      }
      if (std::find(p.children.begin(), p.children.end(), n.id) ==
          p.children.end()) {
        return Status::Internal(StrFormat(
            "node %d missing from parent %d child list", n.id, n.parent));
      }
    }
    for (NodeId child : n.children) {
      if (child <= n.id || static_cast<size_t>(child) >= nodes_.size()) {
        return Status::Internal(
            StrFormat("node %d has invalid child %d", n.id, child));
      }
      if (nodes_[static_cast<size_t>(child)].parent != n.id) {
        return Status::Internal(StrFormat(
            "child %d of node %d does not point back", child, n.id));
      }
    }
    child_links += n.children.size();
    const uint32_t id = label_ids_[i];
    if (id == kNoLabelId) {
      return Status::Internal(StrFormat("node %d has no label id", n.id));
    }
    const auto by_id = label_of_id.try_emplace(id, n.label).first;
    const auto by_label = id_of_label.try_emplace(n.label, id).first;
    if (by_id->second != n.label || by_label->second != id) {
      return Status::Internal(StrFormat(
          "node %d: label ids and labels do not map one to one", n.id));
    }
  }
  if (!nodes_.empty() && child_links != nodes_.size() - 1) {
    return Status::Internal("tree has disconnected or multi-parent nodes");
  }
  return Status::Ok();
}

int LabeledTree::DistinctChildLabelCount(NodeId id) const {
  const TreeNode& n = node(id);
  if (n.children.size() <= 1) return n.fan_out();
  // Ids map one-to-one to labels, so counting distinct ids counts
  // distinct labels without hashing a string.
  thread_local std::vector<uint32_t> ids;
  ids.clear();
  for (NodeId child : n.children) ids.push_back(label_id(child));
  std::sort(ids.begin(), ids.end());
  return static_cast<int>(std::unique(ids.begin(), ids.end()) -
                          ids.begin());
}

int LabeledTree::MaxDepth() const {
  int cached = max_depth_.load();
  if (cached != CachedMax::kUnset) return cached;
  int max_depth = 0;
  for (const TreeNode& n : nodes_) max_depth = std::max(max_depth, n.depth);
  max_depth_.store(max_depth);
  return max_depth;
}

int LabeledTree::MaxFanOut() const {
  int cached = max_fan_out_.load();
  if (cached != CachedMax::kUnset) return cached;
  int max_fan_out = 0;
  for (const TreeNode& n : nodes_) {
    max_fan_out = std::max(max_fan_out, n.fan_out());
  }
  max_fan_out_.store(max_fan_out);
  return max_fan_out;
}

int LabeledTree::MaxDensity() const {
  int cached = max_density_.load();
  if (cached != CachedMax::kUnset) return cached;
  int max_density = 0;
  for (const TreeNode& n : nodes_) {
    max_density = std::max(max_density, DistinctChildLabelCount(n.id));
  }
  max_density_.store(max_density);
  return max_density;
}

NodeId LabeledTree::LowestCommonAncestor(NodeId a, NodeId b) const {
  while (node(a).depth > node(b).depth) a = node(a).parent;
  while (node(b).depth > node(a).depth) b = node(b).parent;
  while (a != b) {
    a = node(a).parent;
    b = node(b).parent;
  }
  return a;
}

int LabeledTree::Distance(NodeId a, NodeId b) const {
  NodeId lca = LowestCommonAncestor(a, b);
  return node(a).depth + node(b).depth - 2 * node(lca).depth;
}

std::vector<std::vector<NodeId>> LabeledTree::Rings(
    NodeId center, int max_distance) const {
  std::vector<std::vector<NodeId>> rings;
  rings.push_back({center});
  std::vector<bool> visited(nodes_.size(), false);
  visited[static_cast<size_t>(center)] = true;
  std::vector<NodeId> frontier = {center};
  for (int d = 1; d <= max_distance && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (NodeId id : frontier) {
      const TreeNode& n = node(id);
      auto visit = [&](NodeId neighbor) {
        if (neighbor != kInvalidNode &&
            !visited[static_cast<size_t>(neighbor)]) {
          visited[static_cast<size_t>(neighbor)] = true;
          next.push_back(neighbor);
        }
      };
      visit(n.parent);
      for (NodeId child : n.children) visit(child);
    }
    std::sort(next.begin(), next.end());
    rings.push_back(next);
    frontier = rings.back();
  }
  while (static_cast<int>(rings.size()) <= max_distance) {
    rings.emplace_back();  // tree exhausted before max_distance
  }
  return rings;
}

std::vector<NodeId> LabeledTree::RootPath(NodeId id) const {
  std::vector<NodeId> path;
  for (NodeId cur = id; cur != kInvalidNode; cur = node(cur).parent) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<NodeId> LabeledTree::Subtree(NodeId id) const {
  std::vector<NodeId> out;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const TreeNode& n = node(cur);
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

namespace {

struct Builder {
  explicit Builder(const TreeBuildOptions& options) : options(options) {}

  const TreeBuildOptions& options;
  LabeledTree tree;
  /// The default hooks' state: labels interned into an interner that
  /// lives as long as the build, staged where the returned references
  /// point.
  TokenInterner interner;
  ResolvedLabel tag;
  std::vector<ResolvedLabel> tokens;

  /// The tag hook, by default lowercasing the tag.
  const ResolvedLabel& ResolveTag(const std::string& raw_tag) {
    if (options.resolved_label_transform) {
      return options.resolved_label_transform(raw_tag);
    }
    tag.label = AsciiToLower(raw_tag);
    tag.id = interner.Intern(tag.label);
    return tag;
  }

  /// The value hook, by default splitting on whitespace and
  /// punctuation and lowercasing.
  const std::vector<ResolvedLabel>& Tokenize(const std::string& text) {
    if (options.resolved_value_tokenizer) {
      return options.resolved_value_tokenizer(text);
    }
    tokens.clear();
    for (const std::string& token :
         StrSplitAny(text, " \t\r\n.,;:!?()[]{}'\"")) {
      ResolvedLabel& resolved = tokens.emplace_back();
      resolved.label = AsciiToLower(token);
      if (!resolved.label.empty()) {
        resolved.id = interner.Intern(resolved.label);
      }
    }
    return tokens;
  }

  NodeId AddTag(NodeId parent, const std::string& raw_tag,
                TreeNodeKind kind) {
    const ResolvedLabel& resolved = ResolveTag(raw_tag);
    return tree.AddNode(parent, resolved.label, resolved.id, kind,
                        raw_tag);
  }

  void AddTokens(NodeId parent, const std::string& text) {
    if (!options.include_values) return;
    for (const ResolvedLabel& token : Tokenize(text)) {
      if (token.label.empty()) continue;
      tree.AddNode(parent, token.label, token.id, TreeNodeKind::kToken,
                   token.label);
    }
  }

  void AddElement(NodeId parent, const Node& element) {
    NodeId id = AddTag(parent, element.name(), TreeNodeKind::kElement);
    // Attributes first, sorted by name (paper §3.1).
    std::vector<const Attribute*> attrs;
    attrs.reserve(element.attributes().size());
    for (const Attribute& a : element.attributes()) attrs.push_back(&a);
    std::sort(attrs.begin(), attrs.end(),
              [](const Attribute* a, const Attribute* b) {
                return a->name < b->name;
              });
    for (const Attribute* attr : attrs) {
      NodeId attr_id = AddTag(id, attr->name, TreeNodeKind::kAttribute);
      AddTokens(attr_id, attr->value);
    }
    // Then content: text tokens and sub-elements in document order.
    for (const auto& child : element.children()) {
      if (child->is_element()) {
        AddElement(id, *child);
      } else if (child->is_text()) {
        AddTokens(id, child->text());
      }
    }
  }
};

}  // namespace

namespace {

/// Whitespace-separated chunks in `text` — an upper-ish bound on the
/// token nodes tokenization will produce (stop words and pure numbers
/// are dropped later, so this usually over-reserves slightly).
size_t CountTokenChunks(std::string_view text) {
  size_t n = 0;
  bool in_chunk = false;
  for (char c : text) {
    bool ws = c == ' ' || c == '\t' || c == '\r' || c == '\n';
    if (!ws && !in_chunk) ++n;
    in_chunk = !ws;
  }
  return n;
}

/// Estimate of the labeled-tree size of `element`'s subtree: one node
/// per element and attribute plus the token chunks of attribute values
/// and text children, so Reserve() avoids rebucketing node storage on
/// content-rich documents.
size_t EstimateTreeNodes(const Node& element) {
  size_t n = 1 + element.attributes().size();
  for (const Attribute& attr : element.attributes()) {
    n += CountTokenChunks(attr.value);
  }
  for (const auto& child : element.children()) {
    if (child->is_element()) {
      n += EstimateTreeNodes(*child);
    } else if (child->is_text()) {
      n += CountTokenChunks(child->text());
    }
  }
  return n;
}

}  // namespace

Result<LabeledTree> BuildLabeledTree(const Node& root_element,
                                     const TreeBuildOptions& options) {
  if (!root_element.is_element()) {
    return Status::InvalidArgument(
        "BuildLabeledTree requires an element node");
  }
  Builder builder(options);
  builder.tree.Reserve(EstimateTreeNodes(root_element));
  builder.AddElement(kInvalidNode, root_element);
  return std::move(builder.tree);
}

Result<LabeledTree> BuildLabeledTree(const Document& doc,
                                     const TreeBuildOptions& options) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root element");
  }
  return BuildLabeledTree(*doc.root(), options);
}

}  // namespace xsdf::xml
