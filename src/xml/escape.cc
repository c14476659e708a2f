#include "xml/escape.h"

namespace xsdf::xml {

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

}  // namespace xsdf::xml
