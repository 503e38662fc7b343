// Copyright 2026 The GraphRARE Authors.
//
// Line-oriented parsing helper for the text IO paths (graph/io, data/io).
// Tracks the 1-based line number so malformed input is reported as
// "'file' line N: ..." instead of failing silently mid-stream.

#ifndef GRAPHRARE_COMMON_LINE_READER_H_
#define GRAPHRARE_COMMON_LINE_READER_H_

#include <istream>
#include <sstream>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/string_util.h"

namespace graphrare {

/// Reads a stream one line at a time, remembering where it is. Every
/// physical line counts (none are skipped), so reported numbers match what
/// an editor shows.
class LineReader {
 public:
  /// The stream must outlive the reader; the path is copied.
  LineReader(std::istream* in, std::string path)
      : in_(in), path_(std::move(path)) {}

  /// Reads the next line into `*line`; false at EOF.
  bool Next(std::string* line) {
    if (!std::getline(*in_, *line)) return false;
    ++line_no_;
    return true;
  }

  /// InvalidArgument pinned to the current line.
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("'%s' line %lld: %s", path_.c_str(),
                  static_cast<long long>(line_no_), message.c_str()));
  }

  /// InvalidArgument for a file that stops short of a promised section.
  Status Truncated(const std::string& expected) const {
    return Status::InvalidArgument(StrFormat(
        "'%s': file ends at line %lld, expected %s", path_.c_str(),
        static_cast<long long>(line_no_), expected.c_str()));
  }

 private:
  std::istream* in_;
  std::string path_;
  int64_t line_no_ = 0;
};

/// Parses exactly two whitespace-separated integers with no trailing junk.
inline bool ParseIntPair(const std::string& line, int64_t* a, int64_t* b) {
  std::istringstream ss(line);
  std::string rest;
  return (ss >> *a >> *b) && !(ss >> rest);
}

}  // namespace graphrare

#endif  // GRAPHRARE_COMMON_LINE_READER_H_
