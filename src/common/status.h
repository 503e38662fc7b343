// Copyright 2026 The GraphRARE Authors.
//
// Status: error propagation without exceptions (RocksDB/Arrow idiom).
// Fallible public APIs return Status (or Result<T>, see result.h); programming
// errors use the GR_CHECK macros from check.h instead.

#ifndef GRAPHRARE_COMMON_STATUS_H_
#define GRAPHRARE_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace graphrare {

/// Error categories used across the library. Keep the list short and generic;
/// details belong in the message.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kUnimplemented = 5,
  kInternal = 6,
  kDeadlineExceeded = 7,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// A lightweight success-or-error value. Cheap to move; the OK status carries
/// no allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  /// Factory helpers, one per code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "InvalidArgument: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

/// Propagates a non-OK status to the caller (RocksDB idiom).
#define GR_RETURN_IF_ERROR(expr)                   \
  do {                                             \
    ::graphrare::Status _gr_status = (expr);       \
    if (!_gr_status.ok()) return _gr_status;       \
  } while (0)

}  // namespace graphrare

#endif  // GRAPHRARE_COMMON_STATUS_H_
