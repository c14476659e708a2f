#ifndef XSDF_TESTS_ORACLES_TOKENIZER_REFERENCE_H_
#define XSDF_TESTS_ORACLES_TOKENIZER_REFERENCE_H_

#include <string>
#include <string_view>
#include <vector>

namespace xsdf::oracles {

/// The character loop text::TokenScanner replaced: lowercase tokens,
/// each a maximal run of letters/digits (std::isalnum), collected one
/// character at a time into a growing string. An apostrophe or a UTF-8
/// right single quote (U+2019) after a word flushes it and skips a
/// possessive `s`. text::Tokenize() must return exactly this list for
/// every input.
std::vector<std::string> ReferenceTokenize(std::string_view input);

}  // namespace xsdf::oracles

#endif  // XSDF_TESTS_ORACLES_TOKENIZER_REFERENCE_H_
