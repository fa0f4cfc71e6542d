// Lightweight error-handling primitives for the Indexed DataFrame library.
//
// Fallible operations return `Status` (void-like) or `Result<T>` (value or
// error). Programmer errors (broken invariants) abort via IDF_CHECK; user and
// environment errors (bad query, missing block, stale version) travel as
// Status so callers can react — e.g. the scheduler catches kUnavailable from
// a lost executor and triggers lineage recomputation.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace idf {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed something malformed (bad schema, key type)
  kNotFound,          // lookup key / block / column absent
  kResourceExhausted, // batch full, memory budget exceeded
  kFailedPrecondition,// operation on wrong state (uncached index, closed writer)
  kUnavailable,       // executor dead / block lost — retryable via lineage
  kInternal,
  kCancelled,         // query cancelled by its client (server/query_service.h)
  kDeadlineExceeded,  // query deadline expired before completion
};

/// Human-readable name of a status code ("OK", "NotFound", ...).
std::string_view StatusCodeName(StatusCode code);

/// A success-or-error outcome with an optional message. Cheap to copy on the
/// OK path (no allocation); error path allocates the message once.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string m) { return {StatusCode::kInvalidArgument, std::move(m)}; }
  static Status NotFound(std::string m) { return {StatusCode::kNotFound, std::move(m)}; }
  static Status ResourceExhausted(std::string m) { return {StatusCode::kResourceExhausted, std::move(m)}; }
  static Status FailedPrecondition(std::string m) { return {StatusCode::kFailedPrecondition, std::move(m)}; }
  static Status Unavailable(std::string m) { return {StatusCode::kUnavailable, std::move(m)}; }
  static Status Internal(std::string m) { return {StatusCode::kInternal, std::move(m)}; }
  static Status Cancelled(std::string m) { return {StatusCode::kCancelled, std::move(m)}; }
  static Status DeadlineExceeded(std::string m) { return {StatusCode::kDeadlineExceeded, std::move(m)}; }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "NotFound: key 42 absent from partition 3" or "OK".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Value-or-Status. Mirrors absl::StatusOr with the subset we need.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}           // NOLINT implicit
  Result(Status status) : status_(std::move(status)) {}   // NOLINT implicit

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & { AbortIfError(); return *value_; }
  const T& value() const& { AbortIfError(); return *value_; }
  T&& value() && { AbortIfError(); return std::move(*value_); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Returns the contained value or `fallback` when in error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void AbortIfError() const {
    if (!ok()) {
      std::fprintf(stderr, "Result::value() on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  std::optional<T> value_;
  Status status_;
};

namespace internal {
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& extra);
}  // namespace internal

// Invariant checks: always on (these guard memory-safety-critical layout
// arithmetic in the storage layer; the cost is negligible next to row I/O).
#define IDF_CHECK(expr)                                                   \
  do {                                                                    \
    if (!(expr)) ::idf::internal::CheckFailed(__FILE__, __LINE__, #expr, ""); \
  } while (0)

#define IDF_CHECK_MSG(expr, msg)                                          \
  do {                                                                    \
    if (!(expr))                                                          \
      ::idf::internal::CheckFailed(__FILE__, __LINE__, #expr, (msg));     \
  } while (0)

// The macros below name their local per expansion (__COUNTER__, which unlike
// __LINE__ never repeats within one multi-line invocation), so one nested in
// a lambda argument of another does not shadow the outer local.
#define IDF_CHECK_OK(status_expr) \
  IDF_CHECK_OK_IMPL_(IDF_STATUS_CONCAT_(_idf_s, __COUNTER__), status_expr)
#define IDF_CHECK_OK_IMPL_(s, status_expr)                                \
  do {                                                                    \
    ::idf::Status s = (status_expr);                                      \
    if (!s.ok())                                                          \
      ::idf::internal::CheckFailed(__FILE__, __LINE__, #status_expr,      \
                                   s.ToString());                         \
  } while (0)

// Propagate a non-OK Status to the caller.
#define IDF_RETURN_IF_ERROR(status_expr)  \
  IDF_RETURN_IF_ERROR_IMPL_(              \
      IDF_STATUS_CONCAT_(_idf_s, __COUNTER__), status_expr)
#define IDF_RETURN_IF_ERROR_IMPL_(s, status_expr) \
  do {                                            \
    ::idf::Status s = (status_expr);              \
    if (!s.ok()) return s;                        \
  } while (0)

// Assign-or-return for Result<T>: IDF_ASSIGN_OR_RETURN(auto x, Foo());
#define IDF_ASSIGN_OR_RETURN(lhs, result_expr)    \
  IDF_ASSIGN_OR_RETURN_IMPL_(                     \
      IDF_STATUS_CONCAT_(_idf_result, __COUNTER__), lhs, result_expr)
#define IDF_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, result_expr) \
  auto tmp = (result_expr);                               \
  if (!tmp.ok()) return tmp.status();                     \
  lhs = std::move(tmp).value()
#define IDF_STATUS_CONCAT_(a, b) IDF_STATUS_CONCAT_IMPL_(a, b)
#define IDF_STATUS_CONCAT_IMPL_(a, b) a##b

}  // namespace idf
