#include "xml/parser.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <utility>
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

  /// The 1-based line and column of `at`, a byte of the input at or
  /// before the cursor: lines are counted back from the cursor's, and
  /// the column from the last newline before `at`. Error paths only.
  std::pair<int, int> PositionOf(const char* at) const {
    const size_t offset = static_cast<size_t>(at - input_.data());
    int line = line_;
    for (size_t i = offset; i < pos_; ++i) {
      if (input_[i] == '\n') --line;
    }
    const size_t newline =
        offset == 0 ? std::string_view::npos : input_.rfind('\n', offset - 1);
    const size_t column =
        newline == std::string_view::npos ? offset + 1 : offset - newline;
    return {line, static_cast<int>(column)};
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

/// DecodeEntities() into `*out` (replacing its contents), so a caller
/// decoding text after text reuses one buffer. On failure `*error_at`
/// (when set) is the offset in `text` of the offending '&'.
Status DecodeEntitiesInto(std::string_view text, size_t* budget,
                          std::string* out, size_t* error_at = nullptr);

/// The parser behind StreamParse: one loop over a Cursor with an
/// explicit stack of open tag names (views into the input), calling
/// the StreamHandler as it goes. Nothing recurses per nesting level,
/// so document depth costs heap, not stack; ParseLimits::max_depth
/// bounds it.
class Parser {
 public:
  Parser(std::string_view input, const ParseOptions& options,
         StreamHandler* handler)
      : cursor_(input),
        options_(options),
        handler_(handler),
        entity_budget_(options.limits.max_entity_references) {}

  Status Run() {
    XSDF_RETURN_IF_ERROR(ParseProlog());
    XSDF_RETURN_IF_ERROR(ParseStartTag());
    XSDF_RETURN_IF_ERROR(ParseContent());
    cursor_.SkipWhitespace();
    // Trailing misc: comments and PIs are allowed after the root.
    while (!cursor_.AtEnd()) {
      if (cursor_.LookingAt("<!--")) {
        XSDF_RETURN_IF_ERROR(SkipComment());
      } else if (cursor_.LookingAt("<?")) {
        XSDF_RETURN_IF_ERROR(SkipProcessingInstruction());
      } else {
        return Error("unexpected content after root element");
      }
      cursor_.SkipWhitespace();
    }
    return Status::Ok();
  }

 private:
  Status Error(const std::string& what) const {
    return ErrorAt(StatusCode::kCorruption, cursor_.line(), cursor_.column(),
                   what);
  }

  Status LimitError(const std::string& what) const {
    return ErrorAt(StatusCode::kOutOfRange, cursor_.line(), cursor_.column(),
                   what);
  }

  /// A parse error (Corruption) or a limit hit (OutOfRange) at
  /// line:column.
  static Status ErrorAt(StatusCode code, int line, int column,
                        const std::string& what) {
    return Status(code, StrFormat(code == StatusCode::kOutOfRange
                                      ? "XML input limit at %d:%d: %s"
                                      : "XML parse error at %d:%d: %s",
                                  line, column, what.c_str()));
  }

  /// `raw` (a slice of the input before the cursor) with its
  /// references decoded against the document-wide budget: `raw` itself
  /// when it has none, else a view of the reused decode buffer, valid
  /// until the next Decode(). A bad reference, or one past the budget,
  /// is reported at the line:column of its '&'.
  Result<std::string_view> Decode(std::string_view raw) {
    if (raw.find('&') == std::string_view::npos) return raw;
    size_t* budget =
        options_.limits.max_entity_references > 0 ? &entity_budget_ : nullptr;
    size_t error_at = 0;
    Status decoded = DecodeEntitiesInto(raw, budget, &decoded_, &error_at);
    if (!decoded.ok()) {
      const auto [line, column] = cursor_.PositionOf(raw.data() + error_at);
      return ErrorAt(decoded.code(), line, column, decoded.message());
    }
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
        XSDF_RETURN_IF_ERROR(SkipComment());
      } else if (cursor_.LookingAt("<!DOCTYPE")) {
        XSDF_RETURN_IF_ERROR(SkipDoctype());
      } else if (cursor_.LookingAt("<?")) {
        XSDF_RETURN_IF_ERROR(SkipProcessingInstruction());
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

  /// Validates the declaration; its values are not surfaced.
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
      // Held to their spec grammars (VersionNum, EncName), so a
      // document that re-emits its declaration stays parseable.
      if (*name == "version") {
        if (!IsValidXmlVersion(*value)) {
          return Error("malformed XML version \"" + std::string(*value) + "\"");
        }
      } else if (*name == "encoding") {
        if (!IsValidEncodingName(*value)) {
          return Error("malformed encoding name \"" + std::string(*value) +
                       "\"");
        }
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

  Status SkipComment() {
    cursor_.Match("<!--");
    while (!cursor_.AtEnd()) {
      if (cursor_.Match("-->")) return Status::Ok();
      cursor_.Advance();
    }
    return Error("unterminated comment");
  }

  Status SkipProcessingInstruction() {
    cursor_.Match("<?");
    while (!cursor_.AtEnd()) {
      if (cursor_.Match("?>")) return Status::Ok();
      cursor_.Advance();
    }
    return Error("unterminated processing instruction");
  }

  /// Names are slices of the input (no decoding), so they stay valid
  /// for the whole parse.
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

  /// Reads the start tag at the cursor and emits its events. A
  /// self-closing tag is also ended here; any other stays open on
  /// `open_` until ParseContent() reads its end tag.
  Status ParseStartTag() {
    if (!cursor_.Match("<")) return Error("expected '<'");
    if (static_cast<int>(open_.size()) >= options_.limits.max_depth) {
      return LimitError(StrFormat("element nesting exceeds max_depth (%d)",
                                  options_.limits.max_depth));
    }
    auto name = ParseName();
    if (!name.ok()) return name.status();
    attr_names_.clear();
    XSDF_RETURN_IF_ERROR(handler_->OnStartElement(*name));
    while (true) {
      cursor_.SkipWhitespace();
      if (cursor_.AtEnd()) return Error("unterminated start tag");
      if (cursor_.Match("/>")) {
        XSDF_RETURN_IF_ERROR(handler_->OnStartTagDone());
        return handler_->OnEndElement(*name);
      }
      if (cursor_.Peek() == '>') {
        cursor_.Advance();
        break;
      }
      if (options_.limits.max_attributes_per_element > 0 &&
          attr_names_.size() >= options_.limits.max_attributes_per_element) {
        return LimitError(
            StrFormat("element has more than %zu attributes",
                      options_.limits.max_attributes_per_element));
      }
      auto attr_name = ParseName();
      if (!attr_name.ok()) return attr_name.status();
      if (std::find(attr_names_.begin(), attr_names_.end(), *attr_name) !=
          attr_names_.end()) {
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
      attr_names_.push_back(*attr_name);
      XSDF_RETURN_IF_ERROR(handler_->OnAttribute(*attr_name, *value));
    }
    XSDF_RETURN_IF_ERROR(handler_->OnStartTagDone());
    open_.push_back(*name);
    return Status::Ok();
  }

  /// Emits the character data collected since the last markup, unless
  /// it is whitespace the options discard.
  Status FlushText(std::string_view* pending) {
    if (pending->empty()) return Status::Ok();
    if (!options_.discard_whitespace_text || !IsWhitespaceOnly(*pending)) {
      auto decoded = Decode(*pending);
      if (!decoded.ok()) return decoded.status();
      XSDF_RETURN_IF_ERROR(handler_->OnText(*decoded));
    }
    *pending = {};
    return Status::Ok();
  }

  /// Reads content until every open element has closed: character
  /// data, CDATA, comments, PIs, start tags (which push) and end tags
  /// (which pop).
  Status ParseContent() {
    // Character data runs up to the next '<', and every markup branch
    // flushes it first, so pending text is always one slice of the
    // input.
    std::string_view pending_text;
    while (!open_.empty()) {
      if (cursor_.AtEnd()) {
        return Error("unterminated element '" + std::string(open_.back()) +
                     "'");
      }
      if (cursor_.Peek() != '<') {
        // Bulk character data: everything up to the next markup is
        // text, collected in one scan.
        pending_text = cursor_.AdvanceUntilLt();
        continue;
      }
      XSDF_RETURN_IF_ERROR(FlushText(&pending_text));
      if (cursor_.Match("</")) {
        auto end_name = ParseName();
        if (!end_name.ok()) return end_name.status();
        cursor_.SkipWhitespace();
        if (!cursor_.Match(">")) return Error("malformed end tag");
        const std::string_view name = open_.back();
        if (*end_name != name) {
          return Error("mismatched end tag: expected </" + std::string(name) +
                       ">, got </" + std::string(*end_name) + ">");
        }
        open_.pop_back();
        XSDF_RETURN_IF_ERROR(handler_->OnEndElement(name));
      } else if (cursor_.Match("<![CDATA[")) {
        size_t begin = cursor_.pos();
        while (!cursor_.AtEnd() && !cursor_.LookingAt("]]>")) {
          cursor_.Advance();
        }
        if (cursor_.AtEnd()) return Error("unterminated CDATA section");
        std::string_view cdata = cursor_.Slice(begin, cursor_.pos());
        cursor_.Match("]]>");
        XSDF_RETURN_IF_ERROR(handler_->OnCData(cdata));
      } else if (cursor_.LookingAt("<!--")) {
        XSDF_RETURN_IF_ERROR(SkipComment());
      } else if (cursor_.LookingAt("<?")) {
        XSDF_RETURN_IF_ERROR(SkipProcessingInstruction());
      } else {
        XSDF_RETURN_IF_ERROR(ParseStartTag());
      }
    }
    return Status::Ok();
  }

  Cursor cursor_;
  const ParseOptions& options_;
  StreamHandler* handler_;
  size_t entity_budget_ = 0;
  /// Reused target of every entity decode.
  std::string decoded_;
  /// Names of the open elements, outermost first, as views into the
  /// input.
  std::vector<std::string_view> open_;
  /// Attribute names of the start tag being read, for the duplicate
  /// check.
  std::vector<std::string_view> attr_names_;
};

}  // namespace

Result<std::string> DecodeEntities(std::string_view text) {
  return DecodeEntities(text, nullptr);
}

namespace {

Status DecodeEntitiesInto(std::string_view text, size_t* budget,
                          std::string* out, size_t* error_at) {
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
    if (error_at != nullptr) *error_at = i;
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

Status StreamParse(std::string_view input, StreamHandler* handler,
                   const ParseOptions& options) {
  if (options.limits.max_depth <= 0) {
    return Status::InvalidArgument(
        StrFormat("max_depth must be at least 1 (got %d): the depth cap "
                  "cannot be disabled",
                  options.limits.max_depth));
  }
  if (options.limits.max_input_bytes > 0 &&
      input.size() > options.limits.max_input_bytes) {
    return Status::OutOfRange(
        StrFormat("XML input of %zu bytes exceeds max_input_bytes (%zu)",
                  input.size(), options.limits.max_input_bytes));
  }
  return Parser(input, options, handler).Run();
}

}  // namespace xsdf::xml
