// Lightweight status / result types used across the Viator libraries.
//
// We avoid exceptions on simulator hot paths (event dispatch, VM stepping);
// fallible operations return Status or Result<T> instead. Both are cheap
// value types: Status is a code plus an optional message, Result<T> is a
// tagged union of T and Status.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace viator {

/// Canonical error categories. Kept deliberately small: callers should branch
/// on category, not on message text.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed something malformed
  kNotFound,          // lookup miss (code hash, node id, fact key, ...)
  kAlreadyExists,     // duplicate registration
  kResourceExhausted, // quota, fuel, queue or slot capacity hit
  kFailedPrecondition,// operation not legal in current state
  kPermissionDenied,  // security / authorization rejection
  kUnimplemented,     // capability gated off (e.g. by WN generation)
  kInternal,          // invariant violation; indicates a bug
};

/// Human-readable name of a status code (stable, for logs and tests).
std::string_view StatusCodeName(StatusCode code);

/// A success-or-error value. Default-constructed Status is OK.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFound(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status AlreadyExists(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
inline Status ResourceExhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status PermissionDenied(std::string msg) {
  return Status(StatusCode::kPermissionDenied, std::move(msg));
}
inline Status Unimplemented(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}
inline Status Internal(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}

/// Value-or-error. Construct from a T (success) or a non-OK Status (error).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : storage_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : storage_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(storage_).ok() &&
           "Result constructed from OK status carries no value");
  }

  bool ok() const { return std::holds_alternative<T>(storage_); }

  /// Status of the result; OK when a value is present.
  Status status() const {
    if (ok()) return OkStatus();
    return std::get<Status>(storage_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(storage_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(storage_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(storage_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Value if present, otherwise a caller-provided fallback.
  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  std::variant<T, Status> storage_;
};

}  // namespace viator
