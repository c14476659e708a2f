#ifndef XSDF_XML_LABELED_TREE_H_
#define XSDF_XML_LABELED_TREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/dom.h"

namespace xsdf::xml {

/// Index of a node inside a LabeledTree (its preorder rank, the paper's
/// `T[i]` notation).
using NodeId = int;
inline constexpr NodeId kInvalidNode = -1;

/// Sentinel for a label that has not been interned; no tree node
/// carries it.
inline constexpr uint32_t kNoLabelId = 0xFFFFFFFFu;

/// What an XML construct a tree node was derived from.
enum class TreeNodeKind {
  kElement,    ///< an element tag
  kAttribute,  ///< an attribute name
  kToken,      ///< one token of an element/attribute text value
};

/// One node of a rooted ordered labeled tree (paper Definition 1).
struct TreeNode {
  NodeId id = kInvalidNode;         ///< preorder rank, T[i]
  std::string label;                ///< T[i].l — preprocessed label
  std::string raw;                  ///< original tag name / token text
  TreeNodeKind kind = TreeNodeKind::kElement;
  NodeId parent = kInvalidNode;
  std::vector<NodeId> children;
  int depth = 0;                    ///< T[i].d — edges from the root

  /// T[i].f — the node's fan-out.
  int fan_out() const { return static_cast<int>(children.size()); }
};

/// A rooted ordered labeled tree: the XML document model the XSDF
/// algorithms operate on (paper Definition 1). Nodes are stored in
/// preorder, so `node(i)` is exactly the paper's `T[i]`, and the root is
/// `T[0]`.
class LabeledTree {
 public:
  LabeledTree() = default;

  /// Appends a node carrying `label` and its interned id `label_id`.
  /// The first added node must be the root (`parent == kInvalidNode`);
  /// children must be added after their parent and in preorder so that
  /// ids equal preorder ranks, and every node needs an id (not
  /// kNoLabelId) drawn from the one interner that issued the tree's
  /// other ids. A call violating these preconditions returns
  /// kInvalidNode without modifying the tree (and traps in checked
  /// builds), so malformed construction fails recoverably in release
  /// binaries.
  NodeId AddNode(NodeId parent, std::string label, uint32_t label_id,
                 TreeNodeKind kind, std::string raw = {});

  /// Pre-sizes node storage (one parse knows its element count).
  void Reserve(size_t node_count) {
    nodes_.reserve(node_count);
    label_ids_.reserve(node_count);
  }

  /// Interned label of `id`.
  uint32_t label_id(NodeId id) const {
    return label_ids_[static_cast<size_t>(id)];
  }

  /// Serial of the interner that issued the ids (core::LabelSpace's
  /// serial()), or 0 when a build-local interner did. A disambiguator
  /// reads only trees whose source is its own label space.
  uint64_t label_source() const { return label_source_; }
  /// Records the issuing interner's serial; builders call it once.
  void set_label_source(uint64_t serial) { label_source_ = serial; }

  /// Full structural-invariant audit: ids equal positions, parents
  /// precede children, depths are parent depth + 1, child lists and
  /// parent pointers agree, every non-root node is linked exactly
  /// once, every node carries a label id, and two nodes share an id
  /// exactly when they share a label. O(nodes + edges) plus one hash
  /// probe per node; used as a fuzzing/property-test oracle.
  Status Validate() const;

  bool empty() const { return nodes_.empty(); }
  size_t size() const { return nodes_.size(); }
  const TreeNode& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  NodeId root() const { return nodes_.empty() ? kInvalidNode : 0; }

  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Number of children of `id` carrying distinct labels — the paper's
  /// density factor x.f-bar (Proposition 3), counted as distinct child
  /// label ids (ids map one-to-one to labels; see Validate()).
  int DistinctChildLabelCount(NodeId id) const;

  /// Max(depth(T)): the maximum node depth in the tree. Memoized after
  /// the first call (AddNode invalidates); the per-node ambiguity
  /// degree normalizes by this, and recomputing the maximum per target
  /// made giant-document disambiguation quadratic.
  int MaxDepth() const;
  /// Max(fan-out(T)): the maximum node fan-out in the tree. Memoized
  /// like MaxDepth().
  int MaxFanOut() const;
  /// Max(fan-out-bar(T)): the maximum distinct-child-label count.
  /// Memoized like MaxDepth() — the uncached scan hashes every child
  /// label of every node, by far the most expensive of the three.
  int MaxDensity() const;

  /// Number of edges on the path between `a` and `b` (Definition 4's
  /// Dist), computed via the lowest common ancestor.
  int Distance(NodeId a, NodeId b) const;

  /// Lowest common ancestor of `a` and `b`.
  NodeId LowestCommonAncestor(NodeId a, NodeId b) const;

  /// Nodes grouped by distance from `center`: element r of the result
  /// is the XML ring R_r(center) (Definition 4); element 0 is {center}.
  /// Rings are computed up to `max_distance` inclusive via BFS over the
  /// undirected tree adjacency.
  std::vector<std::vector<NodeId>> Rings(NodeId center,
                                         int max_distance) const;

  /// Node ids on the path from the root down to `id`, inclusive
  /// (the paper's root path, used by the RPD baseline).
  std::vector<NodeId> RootPath(NodeId id) const;

  /// All node ids in the subtree rooted at `id` (preorder).
  std::vector<NodeId> Subtree(NodeId id) const;

 private:
  /// A memo cell for the tree-wide maxima above. Reads and writes are
  /// relaxed atomics so that concurrent disambiguation of one tree
  /// (the engine's subtree work stealing) may race on the first
  /// computation: every racer derives the same value from the same
  /// immutable nodes, so the race is value-benign. Copyable so the
  /// tree keeps its implicit copy/move operations (a copy inherits
  /// the source's memo, which is equally valid for identical nodes).
  class CachedMax {
   public:
    static constexpr int kUnset = -1;
    CachedMax() = default;
    CachedMax(const CachedMax& other)
        : value_(other.value_.load(std::memory_order_relaxed)) {}
    CachedMax& operator=(const CachedMax& other) {
      value_.store(other.value_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      return *this;
    }
    int load() const { return value_.load(std::memory_order_relaxed); }
    void store(int value) {
      value_.store(value, std::memory_order_relaxed);
    }
   private:
    std::atomic<int> value_{kUnset};
  };

  std::vector<TreeNode> nodes_;
  /// Interned label per node, parallel to nodes_.
  std::vector<uint32_t> label_ids_;
  uint64_t label_source_ = 0;
  mutable CachedMax max_depth_;
  mutable CachedMax max_fan_out_;
  mutable CachedMax max_density_;
};

/// A preprocessed node label together with its interned id
/// (kNoLabelId for a token that normalizes to nothing, which builders
/// skip).
struct ResolvedLabel {
  std::string label;
  uint32_t id = kNoLabelId;
};

/// Controls DOM -> LabeledTree conversion.
struct TreeBuildOptions {
  /// Include attribute/element text values as token leaf nodes
  /// (structure-and-content); when false only tags are kept
  /// (structure-only). See paper §3.1.
  bool include_values = true;

  /// Maps a raw tag name to its node label and interned id. The
  /// default lowercases the tag and interns it into a TokenInterner
  /// local to the build. XSDF's linguistic pre-processing (compound
  /// splitting, stemming) and core::LabelSpace interning are plugged
  /// in here by the core pipeline; a memoizing producer answers one
  /// hash probe per node. The returned reference must stay valid until
  /// the next call (memo entries outlive the build).
  std::function<const ResolvedLabel&(const std::string&)>
      resolved_label_transform;

  /// The same for text values: splits a value into token labels (one
  /// leaf node each) with their ids, under the same reference-lifetime
  /// contract. The default splits on whitespace and punctuation,
  /// lowercases, and interns into the build-local interner. XSDF's
  /// tokenizer, stop-word filter, and stemmer are plugged in here.
  std::function<const std::vector<ResolvedLabel>&(const std::string&)>
      resolved_value_tokenizer;
};

/// Converts a parsed DOM into the rooted ordered labeled tree of
/// Definition 1: element nodes in document order, attribute nodes as
/// children sorted by attribute name before all sub-elements, and text
/// values tokenized into leaf token nodes.
Result<LabeledTree> BuildLabeledTree(const Document& doc,
                                     const TreeBuildOptions& options = {});

/// Same, but starting from an element subtree.
Result<LabeledTree> BuildLabeledTree(const Node& root_element,
                                     const TreeBuildOptions& options = {});

}  // namespace xsdf::xml

#endif  // XSDF_XML_LABELED_TREE_H_
