#ifndef TIOGA2_COMMON_STR_UTIL_H_
#define TIOGA2_COMMON_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tioga2 {

/// Splits `input` on `delimiter`, returning the (possibly empty) pieces.
/// Splitting the empty string yields a single empty piece.
std::vector<std::string> StrSplit(std::string_view input, char delimiter);

/// Joins `pieces` with `separator` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& pieces, std::string_view separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// True iff `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Lower-cases ASCII letters.
std::string AsciiToLower(std::string_view input);

/// Formats a double compactly: integral values render without a fraction,
/// others with up to six significant decimals ("3", "3.25", "0.125").
std::string FormatDouble(double value);

/// Escapes backslashes, quotes and newlines, and wraps in double quotes.
std::string QuoteString(std::string_view input);

/// Inverse of QuoteString. Returns false on malformed input.
bool UnquoteString(std::string_view quoted, std::string* out);

/// Parses a base-10 unsigned integer: one or more ASCII digits and nothing
/// else (no sign, no whitespace). Returns false otherwise, including for a
/// value above UINT64_MAX.
bool ParseUint64(std::string_view text, uint64_t* out);

}  // namespace tioga2

#endif  // TIOGA2_COMMON_STR_UTIL_H_
