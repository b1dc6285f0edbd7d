//===- support/Status.h - Recoverable error taxonomy -----------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recoverable error taxonomy for the squash pipeline and runtime:
/// Status (code + message + context chain) and Expected<T> (value or
/// Status). Library code reports failures by returning these; only CLI
/// drivers, benches, and tests are entitled to die on them, which they do
/// explicitly through Expected<T>::take() / Status::check().
///
/// The design is deliberately tiny — no exception machinery, no allocation
/// beyond the message string — because the runtime half of squash services
/// decompression traps on a simulated hot path and must stay cheap when
/// nothing is wrong (a successful Status is two stores).
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SUPPORT_STATUS_H
#define SQUASH_SUPPORT_STATUS_H

#include "support/Error.h"

#include <optional>
#include <string>
#include <utility>

namespace vea {

/// Failure categories. Codes classify *what kind of thing went wrong* so
/// callers can choose a policy (retry, degrade, surface) without parsing
/// messages.
enum class StatusCode : uint8_t {
  Ok = 0,
  InvalidArgument,   ///< Caller passed inconsistent inputs (sizes, ranges).
  MalformedProgram,  ///< A Program failed structural verification.
  MalformedImage,    ///< An Image/layout is internally inconsistent.
  CorruptBlob,       ///< Compressed payload failed integrity checking.
  CorruptOffsetTable,///< Function offset table entry invalid.
  LayoutError,       ///< Address/displacement could not be encoded.
  EncodingError,     ///< Compression-side encoding failure.
  ResourceExhausted, ///< A fixed-capacity runtime structure overflowed.
  RuntimeFault,      ///< Simulated execution faulted.
  InternalError,     ///< Invariant violation inside the library.
};

/// Human-readable name of \p Code (stable, used in messages and tests).
const char *statusCodeName(StatusCode Code);

/// A success-or-failure carrier. Failure holds a code and a message;
/// context() prepends breadcrumbs as an error travels up the pipeline, so
/// the final message reads outermost-first, e.g.
/// "squash: rewrite: branch displacement out of range".
class [[nodiscard]] Status {
public:
  Status() = default; // Success.

  static Status success() { return Status(); }

  /// Mints an error status. Out of line so the flight recorder (if armed)
  /// can snapshot the live span stack at the moment of failure.
  static Status error(StatusCode Code, std::string Message);

  bool ok() const { return Code == StatusCode::Ok; }
  StatusCode code() const { return Code; }
  const std::string &message() const { return Message; }

  /// Prepends \p What to the context chain and returns the status.
  Status &context(const std::string &What) {
    if (!ok())
      Message = What + ": " + Message;
    return *this;
  }

  /// Renders "<code-name>: <message>" for logs and fault strings.
  std::string toString() const;

  /// Dies via reportFatalError if this is an error. For CLI drivers and
  /// tools where an unexpected failure should be loud and terminal.
  void check() const {
    if (!ok())
      reportFatalError(toString());
  }

private:
  StatusCode Code = StatusCode::Ok;
  std::string Message;
};

/// A value-or-Status carrier: the return type of every fallible library
/// entry point in the squash pipeline.
template <typename T> class [[nodiscard]] Expected {
public:
  Expected(T Value) : Value(std::move(Value)) {}
  Expected(Status S) : Err(std::move(S)) {
    // An Ok status carries no value; normalize to an internal error so the
    // invalid state is still observable rather than UB.
    if (Err.ok())
      Err = Status::error(StatusCode::InternalError,
                          "Expected constructed from an Ok status");
  }

  bool ok() const { return Value.has_value(); }
  explicit operator bool() const { return ok(); }

  const Status &status() const {
    static const Status OkStatus;
    return Value ? OkStatus : Err;
  }

  T &get() {
    if (!Value)
      reportFatalError("Expected::get on error: " + Err.toString());
    return *Value;
  }
  const T &get() const {
    if (!Value)
      reportFatalError("Expected::get on error: " + Err.toString());
    return *Value;
  }

  /// Moves the value out; dies loudly if this holds an error. The "I am a
  /// CLI driver / test and failure here is fatal" accessor.
  T take() {
    if (!Value)
      reportFatalError("Expected::take on error: " + Err.toString());
    return std::move(*Value);
  }

  T *operator->() { return &get(); }
  const T *operator->() const { return &get(); }
  T &operator*() { return get(); }
  const T &operator*() const { return get(); }

  /// Prepends context to the carried error (no-op on success).
  Expected &context(const std::string &What) {
    if (!Value)
      Err.context(What);
    return *this;
  }

private:
  std::optional<T> Value;
  Status Err;
};

} // namespace vea

#endif // SQUASH_SUPPORT_STATUS_H
