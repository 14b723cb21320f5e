#ifndef ZERODB_COMMON_STATUS_H_
#define ZERODB_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "common/check.h"

namespace zerodb {

/// Error codes used across the library. Mirrors the usual database-systems
/// Status idiom (Arrow / RocksDB / LevelDB): no exceptions cross API
/// boundaries; fallible operations return Status or StatusOr<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kIOError,
};

/// Returns a human-readable name for a status code (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A success-or-error result for operations with no payload.
///
/// [[nodiscard]] on the class makes silently dropping any returned Status a
/// compile error tree-wide (-Werror): handle it, ZDB_CHECK_OK it, or cast
/// to void with a comment saying why the discard is sound
/// (scripts/zerodb_analyzer.py rule discarded-status audits the casts).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Formats as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Holds either a value of type T or an error Status. Accessing the value of
/// an errored StatusOr aborts (programming error), matching absl::StatusOr.
/// [[nodiscard]] for the same reason as Status: an ignored StatusOr is an
/// ignored error.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from value / from error, so `return value;` and
  /// `return Status::...;` both work inside functions returning StatusOr<T>.
  StatusOr(T value) : repr_(std::move(value)) {}  // NOLINT
  StatusOr(Status status) : repr_(std::move(status)) {  // NOLINT
    ZDB_CHECK(!std::get<Status>(repr_).ok())
        << "StatusOr constructed from OK status without a value";
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(repr_);
  }

  T& value() & {
    ZDB_CHECK(ok()) << "StatusOr::value on error: " << status().ToString();
    return std::get<T>(repr_);
  }
  const T& value() const& {
    ZDB_CHECK(ok()) << "StatusOr::value on error: " << status().ToString();
    return std::get<T>(repr_);
  }
  T&& value() && {
    ZDB_CHECK(ok()) << "StatusOr::value on error: " << status().ToString();
    return std::get<T>(std::move(repr_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> repr_;
};

/// Aborts (with the status message) if `expr` does not evaluate to an OK
/// Status. Lives here rather than check.h because it needs the Status type.
/// Supports streaming extra context like the rest of the CHECK family.
#define ZDB_CHECK_OK(expr)                                                   \
  for (::zerodb::Status zdb_check_status = (expr); !zdb_check_status.ok();   \
       zdb_check_status = ::zerodb::Status::OK())                            \
  ::zerodb::internal_check::CheckFailureStream(#expr, __FILE__, __LINE__)    \
      << zdb_check_status.ToString() << " "

/// Debug-only ZDB_CHECK_OK: the validator expression is *not evaluated* in
/// NDEBUG builds (the dead `while` swallows it, see ZDB_DCHECK), so
/// expensive invariant walks vanish from release hot paths.
#ifdef NDEBUG
#define ZDB_DCHECK_OK(expr) \
  while (false) ZDB_CHECK_OK(expr)
#else
#define ZDB_DCHECK_OK(expr) ZDB_CHECK_OK(expr)
#endif

/// Propagates a non-OK status to the caller.
#define ZDB_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::zerodb::Status _zdb_status = (expr);      \
    if (!_zdb_status.ok()) return _zdb_status;  \
  } while (0)

/// Evaluates a StatusOr expression, assigning the value or propagating the
/// error. Usage: ZDB_ASSIGN_OR_RETURN(auto x, MakeX());
#define ZDB_ASSIGN_OR_RETURN(lhs, expr)                       \
  ZDB_ASSIGN_OR_RETURN_IMPL_(                                 \
      ZDB_STATUS_CONCAT_(_zdb_statusor, __LINE__), lhs, expr)

#define ZDB_STATUS_CONCAT_INNER_(a, b) a##b
#define ZDB_STATUS_CONCAT_(a, b) ZDB_STATUS_CONCAT_INNER_(a, b)
#define ZDB_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr)    \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

}  // namespace zerodb

#endif  // ZERODB_COMMON_STATUS_H_
