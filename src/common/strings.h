#ifndef XSDF_COMMON_STRINGS_H_
#define XSDF_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace xsdf {

/// Splits `text` on any occurrence of `delim`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char delim);

/// Splits `text` on runs of characters from `delims`, dropping empties.
std::vector<std::string> StrSplitAny(std::string_view text,
                                     std::string_view delims);

/// Joins `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Returns `text` with ASCII letters lowered.
std::string AsciiToLower(std::string_view text);

/// Returns `text` with leading/trailing ASCII whitespace removed.
std::string_view StripWhitespace(std::string_view text);

/// True when `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True when `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// True when every character of `text` is an ASCII letter.
bool IsAlphaOnly(std::string_view text);

/// Appends `value` with four decimals: exactly what
/// std::to_chars(value, std::chars_format::fixed, 4) prints (and so
/// printf("%.4f")), ~20x faster for the values that dominate, those in
/// [0, 1000) away from a rounding tie, which are printed by integer
/// arithmetic. Every other value (negative, -0.0, 1000 and up,
/// non-finite, or within 1e-6 of a tie) goes through to_chars.
void AppendFixed4(std::string* out, double value);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace xsdf

#endif  // XSDF_COMMON_STRINGS_H_
