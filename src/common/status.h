#ifndef COLSCOPE_COMMON_STATUS_H_
#define COLSCOPE_COMMON_STATUS_H_

#include <cstdlib>
#include <cstdio>
#include <string>
#include <utility>
#include <variant>

namespace colscope {

/// Machine-readable category of a failure. Mirrors the small set of
/// conditions the library can actually produce; extend sparingly.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  kUnimplemented,
  kUnavailable,
  kDeadlineExceeded,
  kCancelled,
  /// The receiver is alive but refusing work: admission queue full,
  /// estimated cost over budget, or a draining server. Retrying later
  /// (or elsewhere) may succeed; retrying immediately will not.
  kOverloaded,
};

/// Returns the canonical lower-snake name of `code` ("ok",
/// "invalid_argument", ...). Stable; safe to log and test against.
const char* StatusCodeToString(StatusCode code);

/// Value-type result of an operation that can fail. The library does not
/// use exceptions (Google style); fallible functions return `Status` or
/// `Result<T>` instead. A default-constructed `Status` is OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per non-OK code.
  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  /// kCancelled or kDeadlineExceeded: a cooperative stop, which callers
  /// end cleanly rather than treat as a failure.
  bool interrupted() const {
    return code_ == StatusCode::kCancelled ||
           code_ == StatusCode::kDeadlineExceeded;
  }
  const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>"; intended for logs and test output.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or a non-OK Status. Analogous to
/// absl::StatusOr. Accessing `value()` on an error aborts the process with
/// the status message (library-level invariant violation).
template <typename T>
class Result {
 public:
  /// Implicit from value and from Status so `return value;` and
  /// `return Status::...()` both work at fallible call sites.
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    if (std::get<Status>(data_).ok()) {
      std::fprintf(stderr, "Result constructed from OK status\n");
      std::abort();
    }
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(data_);
  }

  const T& value() const& {
    CheckOk();
    return std::get<T>(data_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(data_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::fprintf(stderr, "Result::value() on error: %s\n",
                   std::get<Status>(data_).ToString().c_str());
      std::abort();
    }
  }

  std::variant<T, Status> data_;
};

}  // namespace colscope

/// Propagates a non-OK status from the current function.
#define COLSCOPE_RETURN_IF_ERROR(expr)              \
  do {                                              \
    ::colscope::Status _st = (expr);                \
    if (!_st.ok()) return _st;                      \
  } while (0)

#endif  // COLSCOPE_COMMON_STATUS_H_
