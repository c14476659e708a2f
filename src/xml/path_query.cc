#include "xml/path_query.h"

#include <algorithm>

#include "common/strings.h"

namespace xsdf::xml {

namespace {

/// Does `node` satisfy the name + attribute predicate of `step`?
bool StepMatches(const Node& node, const PathStep& step) {
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

/// Recursive matcher: nodes satisfying steps[index..] starting the
/// match attempt at `node`.
void Match(const Node& node, const std::vector<PathStep>& steps,
           size_t index, std::vector<const Node*>* out) {
  if (index >= steps.size()) return;
  const PathStep& step = steps[index];

  if (StepMatches(node, step)) {
    if (index + 1 == steps.size()) {
      if (std::find(out->begin(), out->end(), &node) == out->end()) {
        out->push_back(&node);
      }
    } else {
      for (const auto& child : node.children()) {
        Match(*child, steps, index + 1, out);
      }
    }
  }
  // A descendant step may also start deeper.
  if (step.descendant) {
    for (const auto& child : node.children()) {
      Match(*child, steps, index, out);
    }
  }
}

void MatchTree(const LabeledTree& tree, NodeId id,
               const std::vector<PathStep>& steps, size_t index,
               std::vector<NodeId>* out) {
  if (index >= steps.size()) return;
  const PathStep& step = steps[index];
  bool name_ok = tree.kind(id) == TreeNodeKind::kElement &&
                 (step.name == "*" || tree.label(id) == step.name);
  if (name_ok) {
    if (index + 1 == steps.size()) {
      if (std::find(out->begin(), out->end(), id) == out->end()) {
        out->push_back(id);
      }
    } else {
      for (NodeId child : tree.children(id)) {
        MatchTree(tree, child, steps, index + 1, out);
      }
    }
  }
  if (step.descendant) {
    for (NodeId child : tree.children(id)) {
      MatchTree(tree, child, steps, index, out);
    }
  }
}

}  // namespace

Result<PathQuery> PathQuery::Parse(std::string_view query) {
  PathQuery compiled;
  compiled.text_ = std::string(query);
  std::string_view rest = query;
  if (rest.empty()) {
    return Status::Corruption("empty path query");
  }
  bool next_descendant = false;
  if (StartsWith(rest, "//")) {
    next_descendant = true;
    rest.remove_prefix(2);
  } else if (StartsWith(rest, "/")) {
    rest.remove_prefix(1);
  } else {
    // A relative query behaves like a descendant query.
    next_descendant = true;
  }
  while (!rest.empty()) {
    PathStep step;
    step.descendant = next_descendant;
    next_descendant = false;
    // Step name up to '/', '['.
    size_t end = rest.find_first_of("/[");
    std::string_view name = rest.substr(0, end);
    if (name.empty()) {
      return Status::Corruption("empty step in path query: " +
                                compiled.text_);
    }
    step.name = std::string(name);
    rest.remove_prefix(name.size());
    // Optional [@attr] / [@attr='value'] predicate.
    if (StartsWith(rest, "[")) {
      size_t close = rest.find(']');
      if (close == std::string_view::npos) {
        return Status::Corruption("unterminated predicate in: " +
                                  compiled.text_);
      }
      std::string_view predicate = rest.substr(1, close - 1);
      rest.remove_prefix(close + 1);
      if (!StartsWith(predicate, "@") || predicate.size() < 2) {
        return Status::Corruption("only attribute predicates [@a] or "
                                  "[@a='v'] are supported: " +
                                  compiled.text_);
      }
      predicate.remove_prefix(1);
      step.has_attribute_predicate = true;
      size_t eq = predicate.find('=');
      if (eq == std::string_view::npos) {
        step.attribute = std::string(predicate);
      } else {
        step.attribute = std::string(predicate.substr(0, eq));
        std::string_view value = predicate.substr(eq + 1);
        if (value.size() < 2 ||
            (value.front() != '\'' && value.front() != '"') ||
            value.back() != value.front()) {
          return Status::Corruption(
              "attribute value must be quoted in: " + compiled.text_);
        }
        step.has_attribute_value = true;
        step.attribute_value =
            std::string(value.substr(1, value.size() - 2));
      }
    }
    compiled.steps_.push_back(std::move(step));
    // Separator.
    if (rest.empty()) break;
    if (StartsWith(rest, "//")) {
      next_descendant = true;
      rest.remove_prefix(2);
    } else if (StartsWith(rest, "/")) {
      rest.remove_prefix(1);
    } else {
      return Status::Corruption("expected '/' in path query: " +
                                compiled.text_);
    }
    if (rest.empty()) {
      return Status::Corruption("trailing '/' in path query: " +
                                compiled.text_);
    }
  }
  if (compiled.steps_.empty()) {
    return Status::Corruption("path query has no steps: " +
                              compiled.text_);
  }
  return compiled;
}

std::vector<const Node*> PathQuery::Evaluate(const Document& doc) const {
  std::vector<const Node*> out;
  if (doc.root() != nullptr) {
    Match(*doc.root(), steps_, 0, &out);
  }
  return out;
}

std::vector<NodeId> PathQuery::Evaluate(const LabeledTree& tree) const {
  std::vector<NodeId> out;
  if (!tree.empty()) {
    MatchTree(tree, tree.root(), steps_, 0, &out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace xsdf::xml
