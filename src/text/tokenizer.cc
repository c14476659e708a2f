#include "text/tokenizer.h"

namespace xsdf::text {

namespace {
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsUpper(char c) { return c >= 'A' && c <= 'Z'; }
bool IsLower(char c) { return c >= 'a' && c <= 'z'; }
bool IsWordChar(char c) { return IsLower(c) || IsUpper(c) || IsDigit(c); }
}  // namespace

bool TokenScanner::Next() {
  const size_t n = input_.size();
  size_t i = pos_;
  while (i < n && !IsWordChar(input_[i])) ++i;
  if (i >= n) {
    pos_ = n;
    return false;
  }
  begin_ = i;
  has_letter_ = false;
  has_upper_ = false;
  for (; i < n && IsWordChar(input_[i]); ++i) {
    const bool upper = IsUpper(input_[i]);
    has_letter_ |= upper || IsLower(input_[i]);
    has_upper_ |= upper;
  }
  end_ = i;
  if (i < n && (input_[i] == '\'' || input_[i] == '\xE2')) {
    // Possessive / contraction: "director's" -> "director". 0xE2
    // begins the UTF-8 right single quote; its two tail bytes are
    // skipped unread.
    if (input_[i] == '\xE2' && i + 2 < n) i += 2;
    if (i + 1 < n && (input_[i + 1] == 's' || input_[i + 1] == 'S') &&
        (i + 2 >= n || !IsWordChar(input_[i + 2]))) {
      ++i;  // the possessive s
    }
    ++i;
  }
  pos_ = i;
  return true;
}

std::string_view TokenScanner::Lowercase(std::string* buffer) const {
  const std::string_view token = raw();
  if (!has_upper_) return token;
  buffer->assign(token);
  for (char& c : *buffer) {
    if (IsUpper(c)) c = static_cast<char>(c - 'A' + 'a');
  }
  return *buffer;
}

std::vector<std::string> Tokenize(std::string_view input) {
  std::vector<std::string> tokens;
  std::string lowered;
  for (TokenScanner scanner(input); scanner.Next();) {
    tokens.emplace_back(scanner.Lowercase(&lowered));
  }
  return tokens;
}

bool HasLetter(std::string_view token) {
  for (char c : token) {
    if (IsLower(c) || IsUpper(c)) return true;
  }
  return false;
}

}  // namespace xsdf::text
