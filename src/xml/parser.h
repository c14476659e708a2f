#ifndef XSDF_XML_PARSER_H_
#define XSDF_XML_PARSER_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "xml/dom.h"

namespace xsdf::xml {

/// Input-hardening limits. Every document XSDF serves enters through
/// this parser, so adversarial inputs must fail with a `Status` before
/// they can exhaust the stack (deep recursion), memory, or CPU. A zero
/// value disables the corresponding size or count limit; the depth cap
/// cannot be disabled.
struct ParseLimits {
  /// Maximum accepted input size in bytes.
  size_t max_input_bytes = 64u << 20;
  /// Maximum element-nesting depth; must be at least 1 (Parse and
  /// StreamParse return InvalidArgument otherwise). The parser,
  /// serializer, and DOM destructor recurse over the element tree (the
  /// labeled-tree builder does not), so this bound protects them from
  /// stack overflow. Raise it deliberately and only as far as the
  /// stack allows.
  int max_depth = 256;
  /// Maximum number of attributes on a single element.
  size_t max_attributes_per_element = 1024;
  /// Maximum total number of entity/character references decoded over
  /// the whole document. XSDF never expands user-defined entities
  /// (DOCTYPE internal subsets are skipped, so billion-laughs style
  /// blowup is structurally impossible and decoded text is never
  /// longer than its source), but the budget still caps the absolute
  /// work malformed inputs can demand.
  size_t max_entity_references = 1u << 20;
};

/// Options controlling XML parsing.
struct ParseOptions {
  /// When true, text nodes consisting only of whitespace (typical
  /// pretty-printing indentation) are dropped from the DOM.
  bool discard_whitespace_text = true;
  /// When true, comments are kept as DOM nodes; otherwise dropped.
  bool keep_comments = false;
  /// When true, processing instructions are kept; otherwise dropped.
  bool keep_processing_instructions = false;
  /// Hardening limits; violations produce `OutOfRange` errors (while
  /// grammar violations stay `Corruption`).
  ParseLimits limits;
};

/// Parses an XML 1.0 document from `input`.
///
/// Supported: XML declaration, elements, attributes (single/double
/// quoted), character data, CDATA sections, comments, processing
/// instructions, DOCTYPE declarations (skipped, including internal
/// subsets), the five predefined entities, and decimal/hex character
/// references. Errors carry 1-based line/column positions.
Result<Document> Parse(std::string_view input,
                       const ParseOptions& options = {});

/// Receiver for `StreamParse` events. Callbacks fire in document
/// order: OnStartElement, then one OnAttribute per attribute in source
/// order, OnStartTagDone once the start tag closes, interleaved
/// OnText/OnCData/child elements, and OnEndElement (also emitted for
/// self-closing tags, right after OnStartTagDone). Every view points
/// into the parse input or into the parser's reused decode buffer and
/// is valid only during the callback: a handler that keeps text copies
/// it. Text and attribute values arrive entity-decoded (CDATA
/// verbatim) and whitespace-only text is already dropped per
/// ParseOptions::discard_whitespace_text. Returning a non-ok Status
/// aborts the parse with that status.
class StreamHandler {
 public:
  virtual ~StreamHandler() = default;
  virtual Status OnStartElement(std::string_view name) {
    (void)name;
    return Status::Ok();
  }
  virtual Status OnAttribute(std::string_view name, std::string_view value) {
    (void)name;
    (void)value;
    return Status::Ok();
  }
  virtual Status OnStartTagDone() { return Status::Ok(); }
  virtual Status OnText(std::string_view text) {
    (void)text;
    return Status::Ok();
  }
  virtual Status OnCData(std::string_view text) {
    (void)text;
    return Status::Ok();
  }
  virtual Status OnEndElement(std::string_view name) {
    (void)name;
    return Status::Ok();
  }
};

/// One-pass SAX-style parse of `input` into `handler`, sharing the
/// grammar, memchr hot path, and `ParseLimits` budgets with `Parse`
/// (both front ends instantiate the same parser template, so accepted
/// inputs, rejected inputs, and the emitted text/CDATA node sequence
/// are identical by construction). Nothing is materialized: peak
/// memory is the handler's own state plus one entity-decode buffer.
/// Comments, processing instructions, and the XML declaration are not
/// surfaced as events.
Status StreamParse(std::string_view input, StreamHandler* handler,
                   const ParseOptions& options = {});

/// Reads and parses the XML file at `path`.
Result<Document> ParseFile(const std::string& path,
                           const ParseOptions& options = {});

/// Decodes the predefined entities and character references in `text`.
/// Unknown entity references produce a Corruption error.
Result<std::string> DecodeEntities(std::string_view text);

/// Same, drawing every decoded reference from `*budget`; returns
/// OutOfRange once the budget is exhausted. Used by the parser to
/// enforce ParseLimits::max_entity_references document-wide; a null
/// `budget` decodes without a limit.
Result<std::string> DecodeEntities(std::string_view text, size_t* budget);

/// True when `name` is a valid XML element/attribute name (ASCII subset
/// of the XML Name production: letters, digits, '_', '-', '.', ':',
/// not starting with a digit, '-' or '.').
bool IsValidName(std::string_view name);

}  // namespace xsdf::xml

#endif  // XSDF_XML_PARSER_H_
