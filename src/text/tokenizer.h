#ifndef XSDF_TEXT_TOKENIZER_H_
#define XSDF_TEXT_TOKENIZER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace xsdf::text {

/// Walks free text token by token without allocating: the one
/// tokenizer behind Tokenize() and the tree builder's value hook.
///
/// A token is a maximal run of ASCII letters/digits, lowercased.
/// Punctuation and whitespace separate tokens. An apostrophe (or the
/// UTF-8 right single quote U+2019) ending a word ends its token, and a
/// possessive `s` right after it is skipped: "director's cut" ->
/// "director", "cut". Each token is a slice of the input, so raw()
/// costs nothing and only Lowercase() writes bytes.
///
///   for (TokenScanner scanner(text); scanner.Next();) ...
class TokenScanner {
 public:
  explicit TokenScanner(std::string_view input) : input_(input) {}

  /// Moves to the next token; false once the input is exhausted.
  bool Next();

  /// The current token as it appears in the input.
  std::string_view raw() const {
    return input_.substr(begin_, end_ - begin_);
  }

  /// True when the current token contains a letter (pure numbers do
  /// not reach the dictionary).
  bool has_letter() const { return has_letter_; }

  /// The current token lowercased: raw() itself when it has no
  /// uppercase letter, else a view of `*buffer`, which is overwritten
  /// (its capacity is reused) and must outlive the view.
  std::string_view Lowercase(std::string* buffer) const;

 private:
  std::string_view input_;
  size_t pos_ = 0;  ///< where the next token's search starts
  size_t begin_ = 0;
  size_t end_ = 0;
  bool has_letter_ = false;
  bool has_upper_ = false;
};

/// Every token of `input` in order (see TokenScanner), as strings.
std::vector<std::string> Tokenize(std::string_view input);

/// True when `token` contains at least one letter (filters pure numbers
/// before dictionary lookups).
bool HasLetter(std::string_view token);

}  // namespace xsdf::text

#endif  // XSDF_TEXT_TOKENIZER_H_
