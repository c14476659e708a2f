#ifndef XSDF_XML_PATH_QUERY_H_
#define XSDF_XML_PATH_QUERY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/parser.h"

namespace xsdf::xml {

/// One step of a parsed path query.
struct PathStep {
  std::string name;          ///< element name, or "*" wildcard
  bool descendant = false;   ///< true when reached via "//"
  /// Optional attribute predicate [@name] or [@name='value'].
  std::string attribute;
  std::string attribute_value;
  bool has_attribute_predicate = false;
  bool has_attribute_value = false;
};

/// One element a query matched: its tag name and the slice
/// [text_begin, text_end) of PathMatches::text holding its inner text.
struct PathMatch {
  std::string name;
  size_t text_begin = 0;
  size_t text_end = 0;
};

/// Every element one evaluation matched, each once, in document order.
struct PathMatches {
  std::vector<PathMatch> matches;
  /// The text and CDATA content inside any match, concatenated in
  /// document order; each match's inner text is one slice of it.
  std::string text;

  /// The concatenated text and CDATA content of `match`'s subtree.
  std::string_view InnerText(const PathMatch& match) const {
    return std::string_view(text).substr(match.text_begin,
                                         match.text_end - match.text_begin);
  }
};

/// A compiled path query over XML documents — the XPath subset used by
/// XSDF's query-rewriting application:
///
///   /films/picture/star        absolute child steps
///   //star                     descendant-or-self anywhere
///   /films//star               mixed
///   /films/*/cast              wildcard step
///   //picture[@title]          attribute-presence predicate
///   //movie[@year='1954']      attribute-value predicate
///
/// Compile once with Parse, evaluate against any document's text.
class PathQuery {
 public:
  /// Parses the query; Corruption on syntax errors.
  static Result<PathQuery> Parse(std::string_view query);

  /// The elements of `xml` matching the query, in document order, read
  /// in one xml::StreamParse pass: each open element holds the step
  /// indices it may satisfy, derived from its parent's, so the work is
  /// O(elements x steps) and nothing but the matched text is kept. A
  /// document StreamParse rejects returns its Status.
  Result<PathMatches> Evaluate(std::string_view xml,
                               const ParseOptions& options = {}) const;

  const std::vector<PathStep>& steps() const { return steps_; }

  /// The original query text.
  const std::string& text() const { return text_; }

 private:
  std::vector<PathStep> steps_;
  std::string text_;
};

}  // namespace xsdf::xml

#endif  // XSDF_XML_PATH_QUERY_H_
