#include "xml/serializer.h"

namespace xsdf::xml {

namespace {

void AppendIndent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ');
}

/// True when the element's content is entirely text (so it is rendered
/// inline: <name>text</name>).
bool HasOnlyTextContent(const Node& node) {
  for (const auto& child : node.children()) {
    if (!child->is_text()) return false;
  }
  return true;
}

void SerializeNode(const Node& node, const SerializeOptions& options,
                   int depth, std::string* out) {
  switch (node.kind()) {
    case NodeKind::kText:
      AppendEscaped(out, node.text(), /*attribute=*/false);
      return;
    case NodeKind::kCData:
      out->append("<![CDATA[");
      out->append(node.text());
      out->append("]]>");
      return;
    case NodeKind::kComment:
      out->append("<!--");
      out->append(node.text());
      out->append("-->");
      return;
    case NodeKind::kProcessingInstruction:
      out->append("<?");
      out->append(node.name());
      if (!node.text().empty()) {
        out->push_back(' ');
        out->append(node.text());
      }
      out->append("?>");
      return;
    case NodeKind::kElement:
      break;
  }

  out->push_back('<');
  out->append(node.name());
  for (const Attribute& attr : node.attributes()) {
    out->push_back(' ');
    out->append(attr.name);
    out->append("=\"");
    AppendEscaped(out, attr.value, /*attribute=*/true);
    out->push_back('"');
  }
  if (node.children().empty()) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  if (HasOnlyTextContent(node)) {
    for (const auto& child : node.children()) {
      SerializeNode(*child, options, depth + 1, out);
    }
  } else {
    for (const auto& child : node.children()) {
      AppendIndent(out, options.indent, depth + 1);
      SerializeNode(*child, options, depth + 1, out);
    }
    AppendIndent(out, options.indent, depth);
  }
  out->append("</");
  out->append(node.name());
  out->push_back('>');
}

}  // namespace

void AppendEscaped(std::string* out, std::string_view text,
                   bool attribute) {
  // Copies the runs between special characters in bulk.
  size_t run_start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    std::string_view entity;
    switch (text[i]) {
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '&':
        entity = "&amp;";
        break;
      case '"':
        if (!attribute) continue;
        entity = "&quot;";
        break;
      default:
        continue;
    }
    out->append(text.data() + run_start, i - run_start);
    out->append(entity);
    run_start = i + 1;
  }
  out->append(text.data() + run_start, text.size() - run_start);
}

std::string Serialize(const Node& node, const SerializeOptions& options) {
  std::string out;
  SerializeNode(node, options, 0, &out);
  return out;
}

std::string Serialize(const Document& doc, const SerializeOptions& options) {
  std::string out;
  if (options.declaration) {
    out.append("<?xml version=\"");
    out.append(doc.version().empty() ? "1.0" : doc.version());
    out.push_back('"');
    if (!doc.encoding().empty()) {
      out.append(" encoding=\"");
      out.append(doc.encoding());
      out.push_back('"');
    }
    out.append("?>");
    if (options.indent > 0) out.push_back('\n');
  }
  for (const auto& misc : doc.prolog()) {
    SerializeNode(*misc, options, 0, &out);
    if (options.indent > 0) out.push_back('\n');
  }
  if (doc.root() != nullptr) {
    SerializeNode(*doc.root(), options, 0, &out);
  }
  return out;
}

}  // namespace xsdf::xml
