#include "xml/labeled_tree.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/check.h"
#include "common/strings.h"

namespace xsdf::xml {

NodeId LabeledTreeBuilder::AddNode(NodeId parent, std::string_view label,
                                   uint32_t label_id, TreeNodeKind kind,
                                   std::string_view raw) {
  // Precondition violations are programmer errors, but a release build
  // must not crash on them: callers receive kInvalidNode and can
  // surface a Status (checked builds still stop at the fault).
  const size_t id = tree_.size();
  if ((parent == kInvalidNode) != (id == 0)) {
    XSDF_DCHECK(false,
                "first node must be the root; later nodes need a parent");
    return kInvalidNode;
  }
  if (parent != kInvalidNode &&
      (parent < 0 || static_cast<size_t>(parent) >= id)) {
    XSDF_DCHECK(false, "parent id out of range");
    return kInvalidNode;
  }
  if (label_id == kNoLabelId) {
    XSDF_DCHECK(false, "every node needs a label id");
    return kInvalidNode;
  }
  if (tree_.pool_.size() + label.size() + raw.size() >
          std::numeric_limits<uint32_t>::max() ||
      id >= static_cast<size_t>(std::numeric_limits<NodeId>::max())) {
    XSDF_DCHECK(false, "tree exceeds 32-bit node ids or pool offsets");
    return kInvalidNode;
  }
  bool new_label = false;
  const uint32_t slot = slot_of_label_.FindOrInsert(
      label_id, static_cast<uint32_t>(tree_.labels_.size()), &new_label);
  if (new_label) {
    tree_.labels_.push_back({label_id, Append(label)});
    last_raw_.emplace_back();
  } else if (tree_.slot_label(slot) != label) {
    XSDF_DCHECK(false, "a label id already carries another spelling");
    return kInvalidNode;
  }
  const PoolRange spelling = tree_.labels_[slot].spelling;
  PoolRange raw_range;
  if (raw == label) {
    raw_range = spelling;
  } else if (!raw.empty()) {
    PoolRange& last = last_raw_[slot];
    raw_range = tree_.View(last) == raw ? last : (last = Append(raw));
  }
  tree_.parent_.push_back(parent);
  tree_.depth_.push_back(parent == kInvalidNode
                             ? 0
                             : tree_.depth_[static_cast<size_t>(parent)] + 1);
  tree_.kind_.push_back(kind);
  tree_.label_ids_.push_back(label_id);
  tree_.label_slots_.push_back(slot);
  tree_.raw_.push_back(raw_range);
  return static_cast<NodeId>(id);
}

LabeledTreeBuilder::PoolRange LabeledTreeBuilder::Append(
    std::string_view text) {
  const PoolRange range{static_cast<uint32_t>(tree_.pool_.size()),
                        static_cast<uint32_t>(text.size())};
  tree_.pool_.append(text);
  return range;
}

LabeledTree LabeledTreeBuilder::Finish() {
  // Counting sort of the nodes by parent: count each parent's children,
  // turn the counts into range ends, then place nodes from the highest
  // id down so that every range ends up in increasing id order and
  // each end has moved back to its range's start.
  const size_t n = tree_.size();
  std::vector<uint32_t>& begin = tree_.child_begin_;
  begin.assign(n + 1, 0);
  for (size_t i = 1; i < n; ++i) {
    ++begin[static_cast<size_t>(tree_.parent_[i])];
  }
  uint32_t end = 0;
  for (size_t i = 0; i < n; ++i) begin[i] = end += begin[i];
  begin[n] = end;
  tree_.children_.resize(end);
  for (size_t i = n; i-- > 1;) {
    tree_.children_[--begin[static_cast<size_t>(tree_.parent_[i])]] =
        static_cast<NodeId>(i);
  }
  LabeledTree finished = std::move(tree_);
  tree_ = LabeledTree();
  tree_.label_source_ = finished.label_source_;
  slot_of_label_ = FlatIdMap();
  last_raw_.clear();
  return finished;
}

Status LabeledTree::Validate() const {
  const size_t n = size();
  if (depth_.size() != n || kind_.size() != n || label_ids_.size() != n ||
      label_slots_.size() != n || raw_.size() != n) {
    return Status::Internal("tree columns differ in length");
  }
  if (n == 0) return Status::Ok();
  if (child_begin_.size() != n + 1 || child_begin_[0] != 0 ||
      child_begin_[n] != n - 1 || children_.size() != n - 1) {
    return Status::Internal(
        "child offsets do not total size - 1 child links");
  }
  auto in_pool = [&](PoolRange range) {
    return range.offset <= pool_.size() &&
           range.length <= pool_.size() - range.offset;
  };
  for (size_t i = 0; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (i == 0) {
      if (parent_[0] != kInvalidNode || depth_[0] != 0) {
        return Status::Internal("root node has a parent or nonzero depth");
      }
    } else {
      if (parent_[i] < 0 || parent_[i] >= id) {
        return Status::Internal(StrFormat(
            "node %d has non-preorder parent %d", id, parent_[i]));
      }
      if (depth_[i] != depth_[static_cast<size_t>(parent_[i])] + 1) {
        return Status::Internal(
            StrFormat("node %d depth %d != parent depth %d + 1", id,
                      depth_[i], depth_[static_cast<size_t>(parent_[i])]));
      }
    }
    if (child_begin_[i + 1] < child_begin_[i]) {
      return Status::Internal(
          StrFormat("child offsets decrease at node %d", id));
    }
    // Every listed child names this node as its parent, and the lists
    // strictly increase; with size - 1 links in total, every non-root
    // node is therefore listed exactly once, under its parent.
    NodeId previous = id;
    for (NodeId child : children(id)) {
      if (child <= previous || static_cast<size_t>(child) >= n ||
          parent_[static_cast<size_t>(child)] != id) {
        return Status::Internal(StrFormat(
            "child %d of node %d is out of order or does not point back",
            child, id));
      }
      previous = child;
    }
    if (!in_pool(raw_[i])) {
      return Status::Internal(
          StrFormat("node %d raw text lies outside the pool", id));
    }
    if (label_ids_[i] == kNoLabelId) {
      return Status::Internal(StrFormat("node %d has no label id", id));
    }
    if (label_slots_[i] >= labels_.size() ||
        labels_[label_slots_[i]].label_id != label_ids_[i]) {
      return Status::Internal(StrFormat(
          "node %d label slot does not match its label id", id));
    }
  }
  // The id <-> spelling bijection DistinctChildLabelCount() relies on:
  // one entry (so one spelling) per id, and no spelling under two ids.
  std::unordered_set<uint32_t> ids;
  std::unordered_set<std::string_view> spellings;
  for (const LabelEntry& entry : labels_) {
    if (!in_pool(entry.spelling)) {
      return Status::Internal("label spelling lies outside the pool");
    }
    if (!ids.insert(entry.label_id).second ||
        !spellings.insert(View(entry.spelling)).second) {
      return Status::Internal("label ids and labels do not map one to one");
    }
  }
  return Status::Ok();
}

int LabeledTree::DistinctChildLabelCount(NodeId id) const {
  const std::span<const NodeId> kids = children(id);
  if (kids.size() <= 1) return static_cast<int>(kids.size());
  // Ids map one-to-one to labels, so counting distinct ids counts
  // distinct labels without comparing a string.
  thread_local std::vector<uint32_t> ids;
  ids.clear();
  for (NodeId child : kids) ids.push_back(label_id(child));
  std::sort(ids.begin(), ids.end());
  return static_cast<int>(std::unique(ids.begin(), ids.end()) -
                          ids.begin());
}

int LabeledTree::MaxDepth() const {
  int cached = max_depth_.load();
  if (cached != CachedMax::kUnset) return cached;
  int max_depth = 0;
  for (int depth : depth_) max_depth = std::max(max_depth, depth);
  max_depth_.store(max_depth);
  return max_depth;
}

int LabeledTree::MaxFanOut() const {
  int cached = max_fan_out_.load();
  if (cached != CachedMax::kUnset) return cached;
  int max_fan_out = 0;
  for (NodeId id : ids()) max_fan_out = std::max(max_fan_out, fan_out(id));
  max_fan_out_.store(max_fan_out);
  return max_fan_out;
}

int LabeledTree::MaxDensity() const {
  int cached = max_density_.load();
  if (cached != CachedMax::kUnset) return cached;
  int max_density = 0;
  for (NodeId id : ids()) {
    max_density = std::max(max_density, DistinctChildLabelCount(id));
  }
  max_density_.store(max_density);
  return max_density;
}

std::vector<NodeId> LabeledTree::RootPath(NodeId id) const {
  std::vector<NodeId> path;
  for (NodeId cur = id; cur != kInvalidNode; cur = parent(cur)) {
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
    const std::span<const NodeId> kids = children(cur);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

}  // namespace xsdf::xml
