// Copyright 2026 The GraphRARE Authors.
//
// Tiny JSON value parser + escape helper for the HTTP tier's request
// bodies. Full JSON grammar (null/bool/number/string/array/object,
// \uXXXX escapes) with a recursion-depth bound; numbers are doubles.
// Parsing is Status-based: malformed bodies become 400s, never aborts.

#ifndef GRAPHRARE_NET_JSON_H_
#define GRAPHRARE_NET_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace graphrare {
namespace net {

/// A parsed JSON value. Arrays/objects own their children by value.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (trailing non-whitespace is an error).
  static Result<JsonValue> Parse(const std::string& text,
                                 int max_depth = 32);

  JsonValue() = default;

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// The number as an exact int64 (fails on non-numbers, fractions, and
  /// values outside the int64-exact double range).
  Result<int64_t> AsInt64() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

/// Escapes a string for embedding in a JSON document (quotes not added).
std::string JsonEscape(const std::string& s);

}  // namespace net
}  // namespace graphrare

#endif  // GRAPHRARE_NET_JSON_H_
