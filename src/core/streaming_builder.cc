#include "core/streaming_builder.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/label_space.h"

namespace xsdf::core {

namespace {

using xml::NodeId;
using xml::ResolvedLabel;
using xml::TreeNodeKind;

/// StreamHandler that replays xml::Builder's node-emission order
/// (labeled_tree.cc) against the event stream: the element node on
/// open, buffered attributes sorted by name (each followed by its
/// value tokens) once the start tag closes, text/CDATA tokens at the
/// parser's flush boundaries, pop on close. Every label goes through
/// the shared TreeBuildCache memos, so interning order — and with it
/// every label id — matches the DOM build node for node.
class StreamingTreeBuilder : public xml::StreamHandler {
 public:
  StreamingTreeBuilder(const wordnet::SemanticNetwork& network,
                       bool include_values, LabelSpace& label_space,
                       TreeBuildCache* cache)
      : network_(network),
        include_values_(include_values),
        label_space_(label_space),
        cache_(cache) {
    tree_.set_label_source(label_space.serial());
  }

  Status OnStartElement(std::string_view name) override {
    tag_.assign(name);
    const ResolvedLabel& resolved =
        ResolveTagMemo(*cache_, network_, label_space_, tag_);
    NodeId parent = stack_.empty() ? xml::kInvalidNode : stack_.back();
    NodeId id = tree_.AddNode(parent, resolved.label, resolved.id,
                              TreeNodeKind::kElement, tag_);
    if (id == xml::kInvalidNode) {
      return Status::Internal("labeled tree construction failed");
    }
    stack_.push_back(id);
    NotePeak(0);
    return Status::Ok();
  }

  Status OnAttribute(std::string_view name, std::string value) override {
    attr_bytes_ += name.size() + value.size() + sizeof(PendingAttr);
    attrs_.emplace_back(PendingAttr{std::string(name), std::move(value)});
    NotePeak(0);
    return Status::Ok();
  }

  Status OnStartTagDone() override {
    // Attributes first, sorted by name (paper §3.1) — the same
    // ordering Builder::AddElement applies to the DOM attribute list.
    // The parser rejects duplicate names, so sort order is total.
    std::sort(attrs_.begin(), attrs_.end(),
              [](const PendingAttr& a, const PendingAttr& b) {
                return a.name < b.name;
              });
    for (const PendingAttr& attr : attrs_) {
      const ResolvedLabel& resolved =
          ResolveTagMemo(*cache_, network_, label_space_, attr.name);
      NodeId attr_id = tree_.AddNode(stack_.back(), resolved.label,
                                     resolved.id, TreeNodeKind::kAttribute,
                                     attr.name);
      if (attr_id == xml::kInvalidNode) {
        return Status::Internal("labeled tree construction failed");
      }
      XSDF_RETURN_IF_ERROR(AddTokens(attr_id, attr.value));
    }
    attrs_.clear();
    attr_bytes_ = 0;
    return Status::Ok();
  }

  Status OnText(std::string text) override {
    NotePeak(text.size());
    return AddTokens(stack_.back(), text);
  }

  Status OnCData(std::string text) override {
    NotePeak(text.size());
    return AddTokens(stack_.back(), text);
  }

  Status OnEndElement(std::string_view name) override {
    (void)name;
    stack_.pop_back();
    return Status::Ok();
  }

  Result<xml::LabeledTree> Finish() {
    if (tree_.empty()) {
      return Status::InvalidArgument("document has no root element");
    }
    return std::move(tree_);
  }

  size_t scaffold_peak_bytes() const { return scaffold_peak_bytes_; }

 private:
  struct PendingAttr {
    std::string name;
    std::string value;
  };

  Status AddTokens(NodeId parent, const std::string& text) {
    if (!include_values_) return Status::Ok();
    for (const ResolvedLabel& token :
         TokenizeValueMemo(*cache_, network_, label_space_, text)) {
      if (token.label.empty()) continue;
      if (tree_.AddNode(parent, token.label, token.id, TreeNodeKind::kToken,
                        token.label) == xml::kInvalidNode) {
        return Status::Internal("labeled tree construction failed");
      }
    }
    return Status::Ok();
  }

  void NotePeak(size_t pending_text_bytes) {
    size_t current = attr_bytes_ + tag_.capacity() + pending_text_bytes +
                     stack_.capacity() * sizeof(NodeId) +
                     attrs_.capacity() * sizeof(PendingAttr);
    scaffold_peak_bytes_ = std::max(scaffold_peak_bytes_, current);
  }

  const wordnet::SemanticNetwork& network_;
  bool include_values_;
  LabelSpace& label_space_;
  TreeBuildCache* cache_;

  xml::LabeledTree tree_;
  std::vector<NodeId> stack_;       ///< open elements, root first
  std::vector<PendingAttr> attrs_;  ///< current start tag's attributes
  std::string tag_;                 ///< current start tag's raw name
  size_t attr_bytes_ = 0;
  size_t scaffold_peak_bytes_ = 0;
};

}  // namespace

Result<xml::LabeledTree> BuildTreeStreaming(
    std::string_view xml_text, const wordnet::SemanticNetwork& network,
    const xml::ParseOptions& parse_options, bool include_values,
    LabelSpace* label_space, TreeBuildCache* cache,
    StreamingBuildStats* stats) {
  if (label_space == nullptr) {
    return Status::InvalidArgument("BuildTreeStreaming requires a label space");
  }
  TreeBuildCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  StreamingTreeBuilder builder(network, include_values, *label_space, cache);
  XSDF_RETURN_IF_ERROR(xml::StreamParse(xml_text, &builder, parse_options));
  if (stats != nullptr) {
    stats->scaffold_peak_bytes = builder.scaffold_peak_bytes();
  }
  return builder.Finish();
}

}  // namespace xsdf::core
