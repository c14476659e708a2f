#include "core/streaming_builder.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/label_space.h"

namespace xsdf::core {

namespace {

using xml::NodeId;
using xml::TreeNodeKind;

/// StreamHandler that appends tree nodes in Definition 1's order: the
/// element node on open, buffered attributes sorted by name (each
/// followed by its value tokens) once the start tag closes, text/CDATA
/// tokens at the parser's flush boundaries, pop on close. Every label
/// goes through the TreeBuildCache memos, so labels are interned in
/// node order.
class StreamingTreeBuilder : public xml::StreamHandler {
 public:
  StreamingTreeBuilder(const wordnet::SemanticNetwork& network,
                       bool include_values, LabelSpace& label_space,
                       TreeBuildCache* cache)
      : network_(network),
        include_values_(include_values),
        label_space_(label_space),
        cache_(cache),
        tree_(label_space.serial()) {}

  Status OnStartElement(std::string_view name) override {
    const ResolvedLabel& resolved =
        ResolveTagMemo(*cache_, network_, label_space_, name);
    NodeId parent = stack_.empty() ? xml::kInvalidNode : stack_.back();
    NodeId id = tree_.AddNode(parent, resolved.label, resolved.id,
                              TreeNodeKind::kElement, name);
    if (id == xml::kInvalidNode) {
      return Status::Internal("labeled tree construction failed");
    }
    stack_.push_back(id);
    NotePeak();
    return Status::Ok();
  }

  Status OnAttribute(std::string_view name, std::string_view value) override {
    // The views die with the callback; the start tag's attributes are
    // staged in one reused byte buffer until it closes.
    attrs_.push_back({Stage(name), Stage(value)});
    NotePeak();
    return Status::Ok();
  }

  Status OnStartTagDone() override {
    // Attributes first, sorted by name (paper §3.1). The parser
    // rejects duplicate names, so sort order is total.
    std::sort(attrs_.begin(), attrs_.end(),
              [this](const PendingAttr& a, const PendingAttr& b) {
                return Staged(a.name) < Staged(b.name);
              });
    for (const PendingAttr& attr : attrs_) {
      const std::string_view name = Staged(attr.name);
      const ResolvedLabel& resolved =
          ResolveTagMemo(*cache_, network_, label_space_, name);
      NodeId attr_id = tree_.AddNode(stack_.back(), resolved.label,
                                     resolved.id, TreeNodeKind::kAttribute,
                                     name);
      if (attr_id == xml::kInvalidNode) {
        return Status::Internal("labeled tree construction failed");
      }
      XSDF_RETURN_IF_ERROR(AddTokens(attr_id, Staged(attr.value)));
    }
    attrs_.clear();
    staged_.clear();
    return Status::Ok();
  }

  Status OnText(std::string_view text) override {
    return AddTokens(stack_.back(), text);
  }

  Status OnCData(std::string_view text) override {
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
    return tree_.Finish();
  }

  size_t scaffold_peak_bytes() const { return scaffold_peak_bytes_; }

 private:
  /// A byte range of staged_.
  struct StagedText {
    size_t offset = 0;
    size_t length = 0;
  };
  struct PendingAttr {
    StagedText name;
    StagedText value;
  };

  StagedText Stage(std::string_view text) {
    const StagedText range{staged_.size(), text.size()};
    staged_.append(text);
    return range;
  }
  std::string_view Staged(StagedText range) const {
    return std::string_view(staged_).substr(range.offset, range.length);
  }

  Status AddTokens(NodeId parent, std::string_view text) {
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

  void NotePeak() {
    size_t current = staged_.capacity() +
                     stack_.capacity() * sizeof(NodeId) +
                     attrs_.capacity() * sizeof(PendingAttr);
    scaffold_peak_bytes_ = std::max(scaffold_peak_bytes_, current);
  }

  const wordnet::SemanticNetwork& network_;
  bool include_values_;
  LabelSpace& label_space_;
  TreeBuildCache* cache_;

  xml::LabeledTreeBuilder tree_;
  std::vector<NodeId> stack_;       ///< open elements, root first
  std::vector<PendingAttr> attrs_;  ///< current start tag's attributes
  std::string staged_;              ///< their names and values
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
