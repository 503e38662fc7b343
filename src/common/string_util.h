// Copyright 2026 The GraphRARE Authors.
//
// Small string helpers used by table printers, diagnostics and the strict
// parsers of numbers that come from outside the program (flags, specs).

#ifndef GRAPHRARE_COMMON_STRING_UTIL_H_
#define GRAPHRARE_COMMON_STRING_UTIL_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace graphrare {

/// printf-style formatting into a std::string.
inline std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

inline std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, fmt,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

/// Joins elements with a separator.
inline std::string StrJoin(const std::vector<std::string>& parts,
                           const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

/// Strict base-10 integer parse: the whole of `s` must be one integer
/// (optional sign, no surrounding whitespace) that fits in int64_t.
/// Returns false, leaving *out unchanged, on anything else ("", "2x",
/// " 2", "1e3", out of range).
inline bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

/// ParseInt64 for an unsigned value: digits only, within uint64_t.
inline bool ParseUint64(const std::string& s, uint64_t* out) {
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

/// Strict floating-point parse: the whole of `s` must be one finite
/// number (no surrounding whitespace, no inf or nan, no overflow).
inline bool ParseDouble(const std::string& s, double* out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

/// Parses a comma-separated integer list ("10,10,-1") into *out
/// (appending). Returns false — leaving *out in an unspecified state — on
/// empty tokens or any non-integer junk ("10x", "", "1,,2"). Range
/// validation is the caller's job; this only guarantees every token was a
/// well-formed integer.
inline bool ParseInt64List(const std::string& spec,
                           std::vector<int64_t>* out) {
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    int64_t v = 0;
    if (!ParseInt64(spec.substr(begin, end - begin), &v)) return false;
    out->push_back(v);
    begin = end + 1;
  }
  return true;
}

/// Pads or truncates to a fixed width (left-aligned) for ASCII tables.
inline std::string PadRight(const std::string& s, size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

}  // namespace graphrare

#endif  // GRAPHRARE_COMMON_STRING_UTIL_H_
