#include "common/str_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tioga2 {

std::vector<std::string> StrSplit(std::string_view input, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(input.substr(start));
      return pieces;
    }
    pieces.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string StrJoin(const std::vector<std::string>& pieces, std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) result += separator;
    result += pieces[i];
  }
  return result;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  while (begin < input.size() && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  size_t end = input.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string AsciiToLower(std::string_view input) {
  std::string result(input);
  for (char& c : result) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return result;
}

std::string FormatDouble(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  // Negative zero would print as "0" through the integer fast path below and
  // come back as +0.0 — a bit-level round-trip loss CSV must not have.
  if (value == 0.0 && std::signbit(value)) return "-0";
  // The range test comes first: casting a double outside long long's range
  // is undefined.
  if (std::fabs(value) < 1e15 && value == static_cast<long long>(value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  // Shortest representation that parses back to the same double (CSV and
  // program files must round-trip losslessly).
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string QuoteString(std::string_view input) {
  std::string result = "\"";
  for (char c : input) {
    switch (c) {
      case '\\':
        result += "\\\\";
        break;
      case '"':
        result += "\\\"";
        break;
      case '\n':
        result += "\\n";
        break;
      default:
        result += c;
    }
  }
  result += '"';
  return result;
}

bool UnquoteString(std::string_view quoted, std::string* out) {
  if (quoted.size() < 2 || quoted.front() != '"' || quoted.back() != '"') return false;
  out->clear();
  // Body excludes the surrounding quotes.
  size_t i = 1;
  const size_t end = quoted.size() - 1;
  while (i < end) {
    char c = quoted[i];
    if (c == '\\') {
      if (i + 1 >= end) return false;  // dangling escape
      char esc = quoted[i + 1];
      switch (esc) {
        case '\\':
          *out += '\\';
          break;
        case '"':
          *out += '"';
          break;
        case 'n':
          *out += '\n';
          break;
        default:
          return false;
      }
      i += 2;
    } else if (c == '"') {
      return false;  // unescaped quote inside the body
    } else {
      *out += c;
      ++i;
    }
  }
  return true;
}

bool ParseUint64(std::string_view text, uint64_t* out) {
  const char* end = text.data() + text.size();
  // from_chars takes no sign for unsigned types and reports overflow.
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

}  // namespace tioga2
