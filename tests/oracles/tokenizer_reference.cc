#include "oracles/tokenizer_reference.h"

#include <cctype>

namespace xsdf::oracles {

namespace {
bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::vector<std::string> ReferenceTokenize(std::string_view input) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&]() {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (size_t i = 0; i < input.size(); ++i) {
    char c = input[i];
    if (IsWordChar(c)) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if ((c == '\'' || c == '\xE2') && !current.empty()) {
      // Possessive / contraction: "director's" -> "director".
      // (0xE2 begins the UTF-8 right single quote; skip its tail.)
      if (c == '\xE2' && i + 2 < input.size()) i += 2;
      if (i + 1 < input.size() &&
          (input[i + 1] == 's' || input[i + 1] == 'S') &&
          (i + 2 >= input.size() || !IsWordChar(input[i + 2]))) {
        ++i;  // skip the possessive s
      }
      flush();
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

}  // namespace xsdf::oracles
