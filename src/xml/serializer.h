#ifndef XSDF_XML_SERIALIZER_H_
#define XSDF_XML_SERIALIZER_H_

#include <string>
#include <string_view>

#include "xml/dom.h"

namespace xsdf::xml {

/// Options controlling XML serialization.
struct SerializeOptions {
  /// Indent child elements by this many spaces per level; 0 emits a
  /// single line.
  int indent = 2;
  /// Emit the `<?xml version=... ?>` declaration.
  bool declaration = true;
};

/// Appends `text` to `out` with `<`, `>` and `&` escaped, and `"` too
/// when `attribute` (a double-quoted attribute value). The one escape
/// routine behind Serialize() and core::SemanticTreeToXml().
void AppendEscaped(std::string* out, std::string_view text, bool attribute);

/// Serializes `node` (and its subtree) to XML text.
std::string Serialize(const Node& node, const SerializeOptions& options = {});

/// Serializes the whole document to XML text.
std::string Serialize(const Document& doc,
                      const SerializeOptions& options = {});

}  // namespace xsdf::xml

#endif  // XSDF_XML_SERIALIZER_H_
