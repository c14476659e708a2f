#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>

namespace xsdf {

std::vector<std::string> StrSplit(std::string_view text, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> StrSplitAny(std::string_view text,
                                     std::string_view delims) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t pos = text.find_first_of(delims, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    if (pos > start) out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool IsAlphaOnly(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!std::isalpha(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

void AppendFixed4(std::string* out, double value) {
  if (value >= 0.0 && value < 1000.0 && !std::signbit(value)) {
    // scaled = value * 10^4 < 2^24 is the exact product rounded once,
    // so it lies within 2^-30 of it. Unless scaled sits within 1e-6 of
    // a half-integer, no half-integer separates the two, and rounding
    // scaled to the nearest integer rounds the exact product as
    // to_chars does. The exact ties (odd multiples of 1/32) and their
    // neighbourhood fall through to to_chars and its tie rule.
    const double scaled = value * 10000.0;
    const double whole = std::floor(scaled);
    const double fraction = scaled - whole;
    if (std::fabs(fraction - 0.5) > 1e-6) {
      uint64_t n = static_cast<uint64_t>(whole) + (fraction > 0.5 ? 1 : 0);
      char digits[16];  // at most "1000.0000"
      char* const end = digits + sizeof(digits);
      char* p = end;
      for (int i = 0; i < 4; ++i, n /= 10) {
        *--p = static_cast<char>('0' + n % 10);
      }
      *--p = '.';
      do {
        *--p = static_cast<char>('0' + n % 10);
        n /= 10;
      } while (n != 0);
      out->append(p, static_cast<size_t>(end - p));
      return;
    }
  }
  char digits[400];  // any double at four decimals fits
  const std::to_chars_result printed =
      std::to_chars(digits, digits + sizeof(digits), value,
                    std::chars_format::fixed, 4);
  out->append(digits, static_cast<size_t>(printed.ptr - digits));
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace xsdf
