#ifndef XSDF_XML_ESCAPE_H_
#define XSDF_XML_ESCAPE_H_

#include <string>
#include <string_view>

namespace xsdf::xml {

/// Appends `text` to `out` with `<`, `>` and `&` escaped, and `"` too
/// when `attribute` (a double-quoted attribute value). The one escape
/// routine behind every XML writer: core::SemanticTreeToXml() and the
/// dataset generators.
void AppendEscaped(std::string* out, std::string_view text, bool attribute);

}  // namespace xsdf::xml

#endif  // XSDF_XML_ESCAPE_H_
