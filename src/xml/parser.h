#ifndef XSDF_XML_PARSER_H_
#define XSDF_XML_PARSER_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace xsdf::xml {

/// Input-hardening limits. Every document XSDF serves enters through
/// this parser, so adversarial inputs must fail with a `Status` before
/// they can exhaust memory or CPU. A zero value disables the
/// corresponding size or count limit; the depth cap cannot be
/// disabled.
struct ParseLimits {
  /// Maximum accepted input size in bytes.
  size_t max_input_bytes = 64u << 20;
  /// Maximum element-nesting depth; must be at least 1 (StreamParse
  /// returns InvalidArgument otherwise). Nothing recurses per nesting
  /// level (the parser, the tree builder and the semantic-tree writer
  /// keep explicit stacks), so a raised cap cannot overflow the stack.
  /// It bounds the per-node work that grows with depth: root paths,
  /// sphere rings and the open-element stacks. The semantic-tree
  /// writer's indentation stops growing past the depth this default
  /// allows, so its output stays linear in its input whatever the cap.
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
  /// When true, text consisting only of whitespace (typical
  /// pretty-printing indentation) is not reported as text.
  bool discard_whitespace_text = true;
  /// Hardening limits; violations produce `OutOfRange` errors (while
  /// grammar violations stay `Corruption`).
  ParseLimits limits;
};

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

/// One-pass SAX-style parse of an XML 1.0 document from `input` into
/// `handler` — the one XML parser XSDF has.
///
/// Supported: XML declaration (validated, not surfaced), elements,
/// attributes (single/double quoted), character data, CDATA sections,
/// comments and processing instructions (skipped), DOCTYPE
/// declarations (skipped, including internal subsets), the five
/// predefined entities, and decimal/hex character references. Errors
/// carry 1-based line/column positions. Nothing is materialized and
/// nothing recurses: peak memory is the handler's own state, one
/// entity-decode buffer and the stack of open tag names.
Status StreamParse(std::string_view input, StreamHandler* handler,
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
