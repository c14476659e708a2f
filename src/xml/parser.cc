#include "xml/parser.h"

#include <cctype>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/strings.h"

namespace xsdf::xml {

namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == ':' || c == '-' || c == '.';
}

bool IsWhitespaceOnly(std::string_view text) {
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// VersionNum production: "1." followed by one or more digits.
bool IsValidXmlVersion(std::string_view value) {
  if (value.size() < 3 || value.substr(0, 2) != "1.") return false;
  for (char c : value.substr(2)) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// EncName production: a letter, then letters/digits/'.'/'_'/'-'.
bool IsValidEncodingName(std::string_view value) {
  if (value.empty() ||
      !std::isalpha(static_cast<unsigned char>(value.front()))) {
    return false;
  }
  for (char c : value) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

/// Single-pass cursor over the input with line/column tracking.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t offset) const {
    size_t p = pos_ + offset;
    return p < input_.size() ? input_[p] : '\0';
  }
  size_t pos() const { return pos_; }
  int line() const { return line_; }
  int column() const { return column_; }

  char Advance() {
    char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  bool Match(std::string_view literal) {
    if (input_.substr(pos_).substr(0, literal.size()) != literal) {
      return false;
    }
    for (size_t i = 0; i < literal.size(); ++i) Advance();
    return true;
  }

  bool LookingAt(std::string_view literal) const {
    return input_.substr(pos_).substr(0, literal.size()) == literal;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  /// Advances past every character up to the next '<' (or the end of
  /// input) in one scan and returns the skipped slice. Line/column end
  /// up exactly where the equivalent Advance() sequence would leave
  /// them; character data is the parser's bulk, so it is found with
  /// memchr instead of a per-character dispatch loop.
  std::string_view AdvanceUntilLt() {
    const char* data = input_.data();
    size_t begin = pos_;
    const void* found =
        std::memchr(data + pos_, '<', input_.size() - pos_);
    size_t target = found != nullptr
                        ? static_cast<size_t>(
                              static_cast<const char*>(found) - data)
                        : input_.size();
    for (size_t i = begin; i < target; ++i) {
      if (data[i] == '\n') {
        ++line_;
        column_ = 1;
      } else {
        ++column_;
      }
    }
    pos_ = target;
    return input_.substr(begin, target - begin);
  }

  std::string_view Slice(size_t begin, size_t end) const {
    return input_.substr(begin, end - begin);
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

/// DecodeEntities() into `*out` (replacing its contents), so a caller
/// decoding text after text reuses one buffer.
Status DecodeEntitiesInto(std::string_view text, size_t* budget,
                          std::string* out);

/// Materializing sink: reproduces the DOM `Parse` has always built.
/// Children, text, CDATA, and kept comments attach to the innermost
/// open element in event order, so the resulting tree is the same the
/// previous recursive build produced.
class DomSink {
 public:
  explicit DomSink(Document* doc) : doc_(doc) {}

  void SetVersion(std::string value) { doc_->set_version(std::move(value)); }
  void SetEncoding(std::string value) {
    doc_->set_encoding(std::move(value));
  }

  void PrologComment(std::string content) {
    Node* node = doc_->NewNode(NodeKind::kComment);
    node->set_text(std::move(content));
    doc_->AddPrologNode(node);
  }

  void PrologProcessingInstruction(std::string content) {
    Node* node = doc_->NewNode(NodeKind::kProcessingInstruction);
    size_t space = content.find(' ');
    node->set_name(content.substr(0, space));
    if (space != std::string::npos) {
      node->set_text(content.substr(space + 1));
    }
    doc_->AddPrologNode(node);
  }

  Status StartElement(std::string_view name) {
    Node* element = doc_->NewNode(NodeKind::kElement);
    element->set_name(std::string(name));
    if (open_.empty()) {
      doc_->set_root(element);
    } else {
      open_.back()->AddChild(element);
    }
    open_.push_back(element);
    return Status::Ok();
  }

  size_t AttributeCount() const { return open_.back()->attributes().size(); }
  bool HasAttribute(std::string_view name) const {
    return open_.back()->FindAttribute(name) != nullptr;
  }

  Status AddAttribute(std::string_view name, std::string_view value) {
    open_.back()->AddAttribute(std::string(name), std::string(value));
    return Status::Ok();
  }

  Status FinishStartTag() { return Status::Ok(); }

  Status AddText(std::string_view text) {
    open_.back()->AddText(std::string(text));
    return Status::Ok();
  }

  Status AddCData(std::string_view text) {
    Node* cdata = doc_->NewNode(NodeKind::kCData);
    cdata->set_text(std::string(text));
    open_.back()->AddChild(cdata);
    return Status::Ok();
  }

  void AddComment(std::string content) {
    Node* comment = doc_->NewNode(NodeKind::kComment);
    comment->set_text(std::move(content));
    open_.back()->AddChild(comment);
  }

  Status EndElement(std::string_view name) {
    (void)name;
    open_.pop_back();
    return Status::Ok();
  }

 private:
  Document* doc_;
  std::vector<Node*> open_;
};

/// Forwarding sink for `StreamParse`: no DOM, no arena — just the
/// per-start-tag attribute-name scratch the duplicate check needs.
class HandlerSink {
 public:
  explicit HandlerSink(StreamHandler* handler) : handler_(handler) {}

  void SetVersion(std::string value) { (void)value; }
  void SetEncoding(std::string value) { (void)value; }
  void PrologComment(std::string content) { (void)content; }
  void PrologProcessingInstruction(std::string content) { (void)content; }
  void AddComment(std::string content) { (void)content; }

  Status StartElement(std::string_view name) {
    attr_names_.clear();
    return handler_->OnStartElement(name);
  }

  size_t AttributeCount() const { return attr_names_.size(); }
  bool HasAttribute(std::string_view name) const {
    for (std::string_view existing : attr_names_) {
      if (existing == name) return true;
    }
    return false;
  }

  Status AddAttribute(std::string_view name, std::string_view value) {
    attr_names_.push_back(name);
    return handler_->OnAttribute(name, value);
  }

  Status FinishStartTag() { return handler_->OnStartTagDone(); }
  Status AddText(std::string_view text) { return handler_->OnText(text); }
  Status AddCData(std::string_view text) { return handler_->OnCData(text); }
  Status EndElement(std::string_view name) {
    return handler_->OnEndElement(name);
  }

 private:
  StreamHandler* handler_;
  /// Attribute names of the currently open start tag, as views into
  /// the input (cleared at StartElement — attributes can only occur
  /// before any child opens).
  std::vector<std::string_view> attr_names_;
};

/// Recursive-descent parser over a Cursor, emitting structure into a
/// Sink. `DomSink` materializes the document `Parse` returns;
/// `HandlerSink` forwards events to a StreamHandler for the one-pass
/// streaming front end. Both instantiate this same template, so the
/// grammar, limit checks, entity budget, and text-node boundaries are
/// shared — the property the streaming-vs-DOM bit-identity tests pin.
template <typename Sink>
class ParserT {
 public:
  ParserT(std::string_view input, const ParseOptions& options, Sink* sink)
      : cursor_(input),
        options_(options),
        sink_(sink),
        entity_budget_(options.limits.max_entity_references) {}

  Status Run() {
    XSDF_RETURN_IF_ERROR(ParseProlog());
    XSDF_RETURN_IF_ERROR(ParseElement());
    cursor_.SkipWhitespace();
    // Trailing misc: comments and PIs are allowed after the root
    // (always dropped, matching the previous behavior).
    while (!cursor_.AtEnd()) {
      if (cursor_.LookingAt("<!--")) {
        XSDF_RETURN_IF_ERROR(SkipComment(/*in_prolog=*/false));
      } else if (cursor_.LookingAt("<?")) {
        XSDF_RETURN_IF_ERROR(SkipProcessingInstruction(/*in_prolog=*/false));
      } else {
        return Error("unexpected content after root element");
      }
      cursor_.SkipWhitespace();
    }
    return Status::Ok();
  }

 private:
  Status Error(const std::string& what) const {
    return Status::Corruption(StrFormat("XML parse error at %d:%d: %s",
                                        cursor_.line(), cursor_.column(),
                                        what.c_str()));
  }

  Status LimitError(const std::string& what) const {
    return Status::OutOfRange(StrFormat("XML input limit at %d:%d: %s",
                                        cursor_.line(), cursor_.column(),
                                        what.c_str()));
  }

  /// `raw` with its references decoded against the document-wide
  /// budget: `raw` itself when it has none, else a view of the reused
  /// decode buffer, valid until the next Decode().
  Result<std::string_view> Decode(std::string_view raw) {
    if (raw.find('&') == std::string_view::npos) return raw;
    size_t* budget =
        options_.limits.max_entity_references > 0 ? &entity_budget_ : nullptr;
    XSDF_RETURN_IF_ERROR(DecodeEntitiesInto(raw, budget, &decoded_));
    return std::string_view(decoded_);
  }

  Status ParseProlog() {
    cursor_.SkipWhitespace();
    // "<?xml" must be followed by whitespace to be the declaration —
    // "<?xml-stylesheet ...?>" is an ordinary processing instruction.
    if (cursor_.LookingAt("<?xml") &&
        std::isspace(static_cast<unsigned char>(cursor_.PeekAt(5)))) {
      XSDF_RETURN_IF_ERROR(ParseXmlDeclaration());
    }
    cursor_.SkipWhitespace();
    while (!cursor_.AtEnd()) {
      if (cursor_.LookingAt("<!--")) {
        XSDF_RETURN_IF_ERROR(SkipComment(/*in_prolog=*/true));
      } else if (cursor_.LookingAt("<!DOCTYPE")) {
        XSDF_RETURN_IF_ERROR(SkipDoctype());
      } else if (cursor_.LookingAt("<?")) {
        XSDF_RETURN_IF_ERROR(SkipProcessingInstruction(/*in_prolog=*/true));
      } else {
        break;
      }
      cursor_.SkipWhitespace();
    }
    if (cursor_.AtEnd() || cursor_.Peek() != '<') {
      return Error("expected root element");
    }
    return Status::Ok();
  }

  Status ParseXmlDeclaration() {
    cursor_.Match("<?xml");
    while (!cursor_.AtEnd() && !cursor_.LookingAt("?>")) {
      cursor_.SkipWhitespace();
      if (cursor_.LookingAt("?>")) break;
      auto name = ParseName();
      if (!name.ok()) return name.status();
      cursor_.SkipWhitespace();
      if (cursor_.AtEnd() || cursor_.Peek() != '=') {
        return Error("expected '=' in XML declaration");
      }
      cursor_.Advance();
      cursor_.SkipWhitespace();
      auto value = ParseQuotedValue();
      if (!value.ok()) return value.status();
      // Declaration values are emitted verbatim on serialization, so
      // they must be held to their spec grammars (VersionNum,
      // EncName) or round-tripping accepted garbage would produce
      // unparseable output.
      if (*name == "version") {
        if (!IsValidXmlVersion(*value)) {
          return Error("malformed XML version \"" + std::string(*value) + "\"");
        }
        sink_->SetVersion(std::string(*value));
      } else if (*name == "encoding") {
        if (!IsValidEncodingName(*value)) {
          return Error("malformed encoding name \"" + std::string(*value) +
                     "\"");
        }
        sink_->SetEncoding(std::string(*value));
      }
      // `standalone` is accepted and ignored.
    }
    if (!cursor_.Match("?>")) return Error("unterminated XML declaration");
    return Status::Ok();
  }

  Status SkipDoctype() {
    cursor_.Match("<!DOCTYPE");
    int bracket_depth = 0;
    while (!cursor_.AtEnd()) {
      char c = cursor_.Advance();
      if (c == '[') {
        ++bracket_depth;
      } else if (c == ']') {
        --bracket_depth;
      } else if (c == '>' && bracket_depth == 0) {
        return Status::Ok();
      }
    }
    return Error("unterminated DOCTYPE declaration");
  }

  Status SkipComment(bool in_prolog) {
    cursor_.Match("<!--");
    size_t begin = cursor_.pos();
    while (!cursor_.AtEnd()) {
      if (cursor_.LookingAt("-->")) {
        std::string content(cursor_.Slice(begin, cursor_.pos()));
        cursor_.Match("-->");
        if (options_.keep_comments && in_prolog) {
          sink_->PrologComment(std::move(content));
        }
        return Status::Ok();
      }
      cursor_.Advance();
    }
    return Error("unterminated comment");
  }

  Status SkipProcessingInstruction(bool in_prolog) {
    cursor_.Match("<?");
    size_t begin = cursor_.pos();
    while (!cursor_.AtEnd()) {
      if (cursor_.LookingAt("?>")) {
        std::string content(cursor_.Slice(begin, cursor_.pos()));
        cursor_.Match("?>");
        if (options_.keep_processing_instructions && in_prolog) {
          sink_->PrologProcessingInstruction(std::move(content));
        }
        return Status::Ok();
      }
      cursor_.Advance();
    }
    return Error("unterminated processing instruction");
  }

  /// Names are slices of the input (no decoding), so they are parsed
  /// as views; callers copy only where the DOM keeps the name.
  Result<std::string_view> ParseName() {
    if (cursor_.AtEnd() || !IsNameStartChar(cursor_.Peek())) {
      return Error("expected name");
    }
    size_t begin = cursor_.pos();
    while (!cursor_.AtEnd() && IsNameChar(cursor_.Peek())) {
      cursor_.Advance();
    }
    return cursor_.Slice(begin, cursor_.pos());
  }

  /// The decoded value of a quoted attribute; a view into the input or
  /// the decode buffer (see Decode()).
  Result<std::string_view> ParseQuotedValue() {
    if (cursor_.AtEnd() ||
        (cursor_.Peek() != '"' && cursor_.Peek() != '\'')) {
      return Error("expected quoted value");
    }
    char quote = cursor_.Advance();
    size_t begin = cursor_.pos();
    while (!cursor_.AtEnd() && cursor_.Peek() != quote) {
      if (cursor_.Peek() == '<') {
        return Error("'<' not allowed in attribute value");
      }
      cursor_.Advance();
    }
    if (cursor_.AtEnd()) return Error("unterminated attribute value");
    std::string_view raw = cursor_.Slice(begin, cursor_.pos());
    cursor_.Advance();  // closing quote
    return Decode(raw);
  }

  Status ParseElement() {
    if (!cursor_.Match("<")) return Error("expected '<'");
    // The parser, the serializer, and the DOM destructor recurse once
    // per nesting level, so the depth cap is their stack-overflow
    // guard.
    if (depth_ >= options_.limits.max_depth) {
      return LimitError(StrFormat("element nesting exceeds max_depth (%d)",
                                  options_.limits.max_depth));
    }
    ++depth_;
    Status element = ParseElementBody();
    --depth_;
    return element;
  }

  Status ParseElementBody() {
    auto name = ParseName();
    if (!name.ok()) return name.status();
    XSDF_RETURN_IF_ERROR(sink_->StartElement(*name));

    // Attributes.
    while (true) {
      cursor_.SkipWhitespace();
      if (cursor_.AtEnd()) return Error("unterminated start tag");
      if (cursor_.LookingAt("/>")) {
        cursor_.Match("/>");
        XSDF_RETURN_IF_ERROR(sink_->FinishStartTag());
        return sink_->EndElement(*name);
      }
      if (cursor_.Peek() == '>') {
        cursor_.Advance();
        break;
      }
      if (options_.limits.max_attributes_per_element > 0 &&
          sink_->AttributeCount() >=
              options_.limits.max_attributes_per_element) {
        return LimitError(
            StrFormat("element has more than %zu attributes",
                      options_.limits.max_attributes_per_element));
      }
      auto attr_name = ParseName();
      if (!attr_name.ok()) return attr_name.status();
      if (sink_->HasAttribute(*attr_name)) {
        return Error("duplicate attribute '" + std::string(*attr_name) +
                     "'");
      }
      cursor_.SkipWhitespace();
      if (cursor_.AtEnd() || cursor_.Peek() != '=') {
        return Error("expected '=' after attribute name");
      }
      cursor_.Advance();
      cursor_.SkipWhitespace();
      auto value = ParseQuotedValue();
      if (!value.ok()) return value.status();
      XSDF_RETURN_IF_ERROR(sink_->AddAttribute(*attr_name, *value));
    }
    XSDF_RETURN_IF_ERROR(sink_->FinishStartTag());

    // Content until the matching end tag.
    XSDF_RETURN_IF_ERROR(ParseContent(*name));
    return sink_->EndElement(*name);
  }

  Status ParseContent(std::string_view tag_name) {
    // Character data runs up to the next '<', and every markup branch
    // below flushes it first, so pending text is always one slice of
    // the input.
    std::string_view pending_text;
    auto flush_text = [&]() -> Status {
      if (pending_text.empty()) return Status::Ok();
      if (!options_.discard_whitespace_text ||
          !IsWhitespaceOnly(pending_text)) {
        auto decoded = Decode(pending_text);
        if (!decoded.ok()) return decoded.status();
        XSDF_RETURN_IF_ERROR(sink_->AddText(*decoded));
      }
      pending_text = {};
      return Status::Ok();
    };

    while (true) {
      if (cursor_.AtEnd()) {
        return Error("unterminated element '" + std::string(tag_name) +
                     "'");
      }
      if (cursor_.Peek() != '<') {
        // Bulk character data: everything up to the next markup is
        // text, collected in one scan.
        pending_text = cursor_.AdvanceUntilLt();
        continue;
      }
      if (cursor_.LookingAt("</")) {
        XSDF_RETURN_IF_ERROR(flush_text());
        cursor_.Match("</");
        auto end_name = ParseName();
        if (!end_name.ok()) return end_name.status();
        cursor_.SkipWhitespace();
        if (!cursor_.Match(">")) return Error("malformed end tag");
        if (*end_name != tag_name) {
          return Error("mismatched end tag: expected </" +
                       std::string(tag_name) + ">, got </" +
                       std::string(*end_name) + ">");
        }
        return Status::Ok();
      }
      if (cursor_.LookingAt("<![CDATA[")) {
        XSDF_RETURN_IF_ERROR(flush_text());
        cursor_.Match("<![CDATA[");
        size_t begin = cursor_.pos();
        while (!cursor_.AtEnd() && !cursor_.LookingAt("]]>")) {
          cursor_.Advance();
        }
        if (cursor_.AtEnd()) return Error("unterminated CDATA section");
        std::string_view cdata = cursor_.Slice(begin, cursor_.pos());
        cursor_.Match("]]>");
        XSDF_RETURN_IF_ERROR(sink_->AddCData(cdata));
        continue;
      }
      if (cursor_.LookingAt("<!--")) {
        XSDF_RETURN_IF_ERROR(flush_text());
        cursor_.Match("<!--");
        size_t begin = cursor_.pos();
        while (!cursor_.AtEnd() && !cursor_.LookingAt("-->")) {
          cursor_.Advance();
        }
        if (cursor_.AtEnd()) return Error("unterminated comment");
        if (options_.keep_comments) {
          sink_->AddComment(
              std::string(cursor_.Slice(begin, cursor_.pos())));
        }
        cursor_.Match("-->");
        continue;
      }
      if (cursor_.LookingAt("<?")) {
        XSDF_RETURN_IF_ERROR(flush_text());
        XSDF_RETURN_IF_ERROR(SkipProcessingInstruction(/*in_prolog=*/false));
        continue;
      }
      XSDF_RETURN_IF_ERROR(flush_text());
      XSDF_RETURN_IF_ERROR(ParseElement());
    }
  }

  Cursor cursor_;
  ParseOptions options_;
  Sink* sink_;
  int depth_ = 0;
  size_t entity_budget_ = 0;
  /// Reused target of every entity decode.
  std::string decoded_;
};

}  // namespace

Result<std::string> DecodeEntities(std::string_view text) {
  return DecodeEntities(text, nullptr);
}

namespace {

Status DecodeEntitiesInto(std::string_view text, size_t* budget,
                          std::string* out) {
  out->clear();
  out->reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (c != '&') {
      out->push_back(c);
      ++i;
      continue;
    }
    if (budget != nullptr) {
      if (*budget == 0) {
        return Status::OutOfRange(
            "entity reference budget exhausted (max_entity_references)");
      }
      --*budget;
    }
    size_t semi = text.find(';', i + 1);
    if (semi == std::string_view::npos) {
      return Status::Corruption("unterminated entity reference");
    }
    std::string_view entity = text.substr(i + 1, semi - i - 1);
    if (entity == "lt") {
      out->push_back('<');
    } else if (entity == "gt") {
      out->push_back('>');
    } else if (entity == "amp") {
      out->push_back('&');
    } else if (entity == "apos") {
      out->push_back('\'');
    } else if (entity == "quot") {
      out->push_back('"');
    } else if (!entity.empty() && entity[0] == '#') {
      bool hex = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
      std::string_view digits = entity.substr(hex ? 2 : 1);
      if (digits.empty()) {
        return Status::Corruption("empty character reference");
      }
      unsigned long code = 0;
      for (char d : digits) {
        int v;
        if (d >= '0' && d <= '9') {
          v = d - '0';
        } else if (hex && d >= 'a' && d <= 'f') {
          v = d - 'a' + 10;
        } else if (hex && d >= 'A' && d <= 'F') {
          v = d - 'A' + 10;
        } else {
          return Status::Corruption("malformed character reference: &" +
                                    std::string(entity) + ";");
        }
        code = code * (hex ? 16 : 10) + static_cast<unsigned long>(v);
        if (code > 0x10FFFF) {
          return Status::Corruption("character reference out of range");
        }
      }
      // UTF-8 encode.
      if (code < 0x80) {
        out->push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out->push_back(static_cast<char>(0xC0 | (code >> 6)));
        out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else if (code < 0x10000) {
        out->push_back(static_cast<char>(0xE0 | (code >> 12)));
        out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out->push_back(static_cast<char>(0xF0 | (code >> 18)));
        out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
    } else {
      return Status::Corruption("unknown entity reference: &" +
                                std::string(entity) + ";");
    }
    i = semi + 1;
  }
  return Status::Ok();
}

}  // namespace

Result<std::string> DecodeEntities(std::string_view text, size_t* budget) {
  std::string out;
  XSDF_RETURN_IF_ERROR(DecodeEntitiesInto(text, budget, &out));
  return out;
}

bool IsValidName(std::string_view name) {
  if (name.empty()) return false;
  if (!IsNameStartChar(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!IsNameChar(c)) return false;
  }
  return true;
}

namespace {

/// The checks both entry points run before parsing: a usable depth
/// cap, and the input size budget.
Status CheckLimits(std::string_view input, const ParseOptions& options) {
  if (options.limits.max_depth <= 0) {
    return Status::InvalidArgument(StrFormat(
        "max_depth must be at least 1 (got %d): the depth cap is the "
        "parser's stack-overflow guard",
        options.limits.max_depth));
  }
  if (options.limits.max_input_bytes > 0 &&
      input.size() > options.limits.max_input_bytes) {
    return Status::OutOfRange(
        StrFormat("XML input of %zu bytes exceeds max_input_bytes (%zu)",
                  input.size(), options.limits.max_input_bytes));
  }
  return Status::Ok();
}

}  // namespace

Result<Document> Parse(std::string_view input, const ParseOptions& options) {
  XSDF_RETURN_IF_ERROR(CheckLimits(input, options));
  Document doc;
  DomSink sink(&doc);
  ParserT<DomSink> parser(input, options, &sink);
  XSDF_RETURN_IF_ERROR(parser.Run());
  return doc;
}

Status StreamParse(std::string_view input, StreamHandler* handler,
                   const ParseOptions& options) {
  XSDF_RETURN_IF_ERROR(CheckLimits(input, options));
  HandlerSink sink(handler);
  ParserT<HandlerSink> parser(input, options, &sink);
  return parser.Run();
}

Result<Document> ParseFile(const std::string& path,
                           const ParseOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str(), options);
}

}  // namespace xsdf::xml
