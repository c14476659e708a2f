#include "xml/path_query.h"

#include "common/strings.h"

namespace xsdf::xml {

namespace {

/// The evaluator behind PathQuery::Evaluate. Step k "reaches" an
/// element when the element may satisfy it: the root reaches step 0,
/// and a child reaches step k+1 when its parent satisfied step k, and
/// step k when its parent reached a descendant step k. An element
/// satisfies a reached step when its name and attribute predicate
/// match, and it is a match when it satisfies the last step. One row of
/// reached flags per nesting level is all the state the open elements
/// need.
class StreamMatcher : public StreamHandler {
 public:
  StreamMatcher(const std::vector<PathStep>& steps, PathMatches* out)
      : steps_(steps),
        out_(out),
        candidate_(steps.size()),
        predicate_met_(steps.size()),
        reached_(steps.size()) {
    if (!steps.empty()) reached_[0] = 1;
  }

  Status OnStartElement(std::string_view name) override {
    const uint8_t* reached = Row(open_.size());
    for (size_t k = 0; k < steps_.size(); ++k) {
      const PathStep& step = steps_[k];
      candidate_[k] = reached[k] && (step.name == "*" || step.name == name);
      predicate_met_[k] = !step.has_attribute_predicate;
    }
    if (!candidate_.empty() && candidate_.back()) name_.assign(name);
    return Status::Ok();
  }

  Status OnAttribute(std::string_view name, std::string_view value) override {
    for (size_t k = 0; k < steps_.size(); ++k) {
      const PathStep& step = steps_[k];
      if (candidate_[k] && !predicate_met_[k] && step.attribute == name &&
          (!step.has_attribute_value || step.attribute_value == value)) {
        predicate_met_[k] = 1;
      }
    }
    return Status::Ok();
  }

  Status OnStartTagDone() override {
    const size_t level = open_.size();
    const size_t n = steps_.size();
    reached_.resize((level + 2) * n);
    const uint8_t* reached = Row(level);
    uint8_t* child = Row(level + 1);
    for (size_t k = 0; k < n; ++k) {
      child[k] = reached[k] && steps_[k].descendant;
    }
    bool is_match = false;
    for (size_t k = 0; k < n; ++k) {
      if (!candidate_[k] || !predicate_met_[k]) continue;
      if (k + 1 < n) {
        child[k + 1] = 1;
      } else {
        is_match = true;
      }
    }
    if (!is_match) {
      open_.push_back(kNoMatch);
      return Status::Ok();
    }
    open_.push_back(out_->matches.size());
    out_->matches.push_back({name_, out_->text.size(), out_->text.size()});
    ++open_matches_;
    return Status::Ok();
  }

  Status OnText(std::string_view text) override {
    if (open_matches_ > 0) out_->text.append(text);
    return Status::Ok();
  }

  Status OnCData(std::string_view text) override { return OnText(text); }

  Status OnEndElement(std::string_view name) override {
    (void)name;
    const size_t match = open_.back();
    open_.pop_back();
    if (match != kNoMatch) {
      out_->matches[match].text_end = out_->text.size();
      --open_matches_;
    }
    return Status::Ok();
  }

 private:
  static constexpr size_t kNoMatch = static_cast<size_t>(-1);

  /// The reached flags of an element at nesting `level`.
  uint8_t* Row(size_t level) { return reached_.data() + level * steps_.size(); }

  const std::vector<PathStep>& steps_;
  PathMatches* out_;
  /// Per step, for the start tag being read: name matched / predicate
  /// met so far.
  std::vector<uint8_t> candidate_;
  std::vector<uint8_t> predicate_met_;
  /// Reached flags, one row of steps_.size() per nesting level.
  std::vector<uint8_t> reached_;
  /// Per open element, its index in out_->matches or kNoMatch.
  std::vector<size_t> open_;
  size_t open_matches_ = 0;
  std::string name_;
};

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

Result<PathMatches> PathQuery::Evaluate(std::string_view xml,
                                        const ParseOptions& options) const {
  PathMatches out;
  StreamMatcher matcher(steps_, &out);
  XSDF_RETURN_IF_ERROR(StreamParse(xml, &matcher, options));
  return out;
}

}  // namespace xsdf::xml
