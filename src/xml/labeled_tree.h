#ifndef XSDF_XML_LABELED_TREE_H_
#define XSDF_XML_LABELED_TREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_id_map.h"
#include "common/result.h"

namespace xsdf::xml {

/// Index of a node inside a LabeledTree (its preorder rank, the paper's
/// `T[i]` notation).
using NodeId = int;
inline constexpr NodeId kInvalidNode = -1;

/// Sentinel for a label that has not been interned; no tree node
/// carries it.
inline constexpr uint32_t kNoLabelId = 0xFFFFFFFFu;

/// What an XML construct a tree node was derived from.
enum class TreeNodeKind : uint8_t {
  kElement,    ///< an element tag
  kAttribute,  ///< an attribute name
  kToken,      ///< one token of an element/attribute text value
};

class LabeledTreeBuilder;

/// A rooted ordered labeled tree: the XML document model the XSDF
/// algorithms operate on (paper Definition 1). Node ids are preorder
/// ranks, so node `i` is exactly the paper's `T[i]`, and the root is
/// `T[0]`.
///
/// Storage is columnar: parent, depth, kind and label id are flat
/// arrays indexed by node id; children are CSR ranges (a node's
/// children are not contiguous in preorder, so LabeledTreeBuilder
/// lays them out once when the build finishes); raw text is an
/// (offset, length) range of one per-tree byte pool; and each distinct
/// label's spelling is stored once in that pool, reached through the
/// node's label slot (an index into the tree's distinct-label table),
/// so reading a label never hashes a string or takes a lock.
///
/// A tree is built by LabeledTreeBuilder and immutable afterwards,
/// apart from the relaxed-atomic MaxDepth/MaxFanOut/MaxDensity memos:
/// concurrent readers of one tree (the engine's chunk workers) are
/// safe.
class LabeledTree {
 public:
  LabeledTree() = default;

  bool empty() const { return parent_.empty(); }
  size_t size() const { return parent_.size(); }
  NodeId root() const { return empty() ? kInvalidNode : 0; }
  /// Every node id in preorder: `for (NodeId id : tree.ids())`.
  auto ids() const {
    return std::views::iota(NodeId{0}, static_cast<NodeId>(size()));
  }

  /// T[i]'s parent, kInvalidNode for the root.
  NodeId parent(NodeId id) const { return parent_[Index(id)]; }
  /// T[i].d: edges from the root.
  int depth(NodeId id) const { return depth_[Index(id)]; }
  TreeNodeKind kind(NodeId id) const { return kind_[Index(id)]; }
  /// Interned label of `id`.
  uint32_t label_id(NodeId id) const { return label_ids_[Index(id)]; }
  /// T[i].l: the preprocessed label, a view into the tree's pool.
  std::string_view label(NodeId id) const {
    return slot_label(label_slots_[Index(id)]);
  }
  /// Original tag name / token text of `id`.
  std::string_view raw(NodeId id) const { return View(raw_[Index(id)]); }
  /// Children of `id` in document order (increasing id).
  std::span<const NodeId> children(NodeId id) const {
    const size_t i = Index(id);
    return {children_.data() + child_begin_[i],
            child_begin_[i + 1] - child_begin_[i]};
  }
  /// T[i].f: the node's fan-out.
  int fan_out(NodeId id) const {
    const size_t i = Index(id);
    return static_cast<int>(child_begin_[i + 1] - child_begin_[i]);
  }

  /// Index of `id`'s label in the tree's distinct-label table, in
  /// first-occurrence order: slots and label ids map one to one, so
  /// per-label tables of one document index by slot.
  uint32_t label_slot(NodeId id) const { return label_slots_[Index(id)]; }
  /// Number of distinct labels in the tree.
  size_t label_slot_count() const { return labels_.size(); }
  /// The spelling of label slot `slot`.
  std::string_view slot_label(uint32_t slot) const {
    return View(labels_[slot].spelling);
  }

  /// Serial of the interner that issued the ids (core::LabelSpace's
  /// serial()), or 0 when a build-local interner did. A disambiguator
  /// reads only trees whose source is its own label space.
  uint64_t label_source() const { return label_source_; }

  /// Full structural-invariant audit: the root comes first with depth
  /// 0, parents precede children, depths are parent depth + 1, CSR
  /// offsets are non-decreasing and total size - 1 child links, each
  /// node's child range lists exactly the nodes whose parent column
  /// names it in increasing id, every raw and label range lies inside
  /// the pool, every node carries a label id, and label ids and
  /// spellings map one to one. O(nodes) plus one hash probe per
  /// distinct label; used as a fuzzing/property-test oracle.
  Status Validate() const;

  /// Number of children of `id` carrying distinct labels — the paper's
  /// density factor x.f-bar (Proposition 3), counted as distinct child
  /// label ids (ids map one-to-one to labels; see Validate()).
  int DistinctChildLabelCount(NodeId id) const;

  /// Max(depth(T)): the maximum node depth in the tree. Memoized after
  /// the first call; the per-node ambiguity degree normalizes by this,
  /// and recomputing the maximum per target made giant-document
  /// disambiguation quadratic.
  int MaxDepth() const;
  /// Max(fan-out(T)): the maximum node fan-out in the tree. Memoized
  /// like MaxDepth().
  int MaxFanOut() const;
  /// Max(fan-out-bar(T)): the maximum distinct-child-label count.
  /// Memoized like MaxDepth() — the uncached scan sorts every child
  /// label list, by far the most expensive of the three.
  int MaxDensity() const;

  /// Node ids on the path from the root down to `id`, inclusive
  /// (the paper's root path, used by the RPD baseline).
  std::vector<NodeId> RootPath(NodeId id) const;

  /// All node ids in the subtree rooted at `id` (preorder).
  std::vector<NodeId> Subtree(NodeId id) const;

 private:
  friend class LabeledTreeBuilder;

  /// A byte range of pool_.
  struct PoolRange {
    uint32_t offset = 0;
    uint32_t length = 0;
  };
  /// One distinct label: its interned id and its spelling.
  struct LabelEntry {
    uint32_t label_id = kNoLabelId;
    PoolRange spelling;
  };

  static size_t Index(NodeId id) { return static_cast<size_t>(id); }
  std::string_view View(PoolRange range) const {
    return std::string_view(pool_.data() + range.offset, range.length);
  }

  /// A memo cell for the tree-wide maxima above. Reads and writes are
  /// relaxed atomics so that concurrent disambiguation of one tree
  /// (the engine's subtree work stealing) may race on the first
  /// computation: every racer derives the same value from the same
  /// immutable columns, so the race is value-benign. Copyable so the
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

  std::vector<NodeId> parent_;
  std::vector<int> depth_;
  std::vector<TreeNodeKind> kind_;
  std::vector<uint32_t> label_ids_;
  std::vector<uint32_t> label_slots_;
  std::vector<PoolRange> raw_;
  /// CSR: the children of node i are children_[child_begin_[i] ..
  /// child_begin_[i + 1]); size() + 1 offsets once built.
  std::vector<uint32_t> child_begin_;
  std::vector<NodeId> children_;
  std::vector<LabelEntry> labels_;
  std::string pool_;
  uint64_t label_source_ = 0;
  mutable CachedMax max_depth_;
  mutable CachedMax max_fan_out_;
  mutable CachedMax max_density_;
};

/// Appends nodes in preorder and finishes them into a LabeledTree.
/// Each distinct label id's spelling is copied into the pool once, and
/// a raw text equal to its label (every token) or to the label's
/// previous differing raw (a repeated tag) shares that pool range, so
/// an append copies bytes only for new text. Column growth is
/// amortized: no per-node heap allocation.
class LabeledTreeBuilder {
 public:
  /// `label_source` is the serial of the interner issuing the ids
  /// (LabeledTree::label_source()).
  explicit LabeledTreeBuilder(uint64_t label_source = 0) {
    tree_.label_source_ = label_source;
  }

  /// Appends a node carrying `label` and its interned id `label_id`;
  /// `raw` is the original text (empty when there is none). The first
  /// added node must be the root (`parent == kInvalidNode`); children
  /// must be added after their parent and in preorder so that ids equal
  /// preorder ranks; every node needs an id (not kNoLabelId) drawn from
  /// the one interner that issued the tree's other ids, so an id
  /// already in the tree must come with the same spelling. A call
  /// violating these preconditions returns kInvalidNode without
  /// modifying the tree (and traps in checked builds), so malformed
  /// construction fails recoverably in release binaries.
  NodeId AddNode(NodeId parent, std::string_view label, uint32_t label_id,
                 TreeNodeKind kind, std::string_view raw = {});

  bool empty() const { return tree_.empty(); }
  size_t size() const { return tree_.size(); }

  /// Lays out the children and returns the finished tree, leaving the
  /// builder empty (with the same label source).
  LabeledTree Finish();

 private:
  using PoolRange = LabeledTree::PoolRange;

  /// Copies `text` to the end of the pool.
  PoolRange Append(std::string_view text);

  LabeledTree tree_;
  /// label id -> label slot.
  FlatIdMap slot_of_label_;
  /// Per label slot, the last raw text that differed from the label.
  std::vector<PoolRange> last_raw_;
};

}  // namespace xsdf::xml

#endif  // XSDF_XML_LABELED_TREE_H_
