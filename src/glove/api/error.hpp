// Typed error/result model of the glove::api boundary.  Inside the
// library, algorithms throw (std::invalid_argument on a bad configuration,
// util::DatasetError on bad data); the Engine converts every failure into
// an Error so callers branch on a code instead of parsing exception types.

#ifndef GLOVE_API_ERROR_HPP
#define GLOVE_API_ERROR_HPP

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace glove::api {

enum class ErrorCode {
  /// A RunConfig field is out of range or not finite (k < 2,
  /// max_shard_users < k, a NaN limit, ...).
  kInvalidConfig,
  /// RunConfig::strategy names none of the four strategies; the message
  /// lists them (Engine::strategies()).
  kUnknownStrategy,
  /// The input dataset cannot be anonymized as configured (malformed,
  /// empty, smaller than k, ...): util::DatasetError from its consumer.
  kInvalidDataset,
  /// An unexpected failure inside a strategy (a bug, not a usage error).
  kInternal,
};

[[nodiscard]] constexpr std::string_view to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kInvalidConfig: return "invalid-config";
    case ErrorCode::kUnknownStrategy: return "unknown-strategy";
    case ErrorCode::kInvalidDataset: return "invalid-dataset";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Minimal expected-like result: either a value or an Error.  (std::expected
/// is C++23; this project targets C++20.)
template <typename T>
class Result {
 public:
  Result(T value) : value_{std::move(value)} {}
  Result(Error error) : value_{std::move(error)} {}

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(value_);
  }
  explicit operator bool() const noexcept { return ok(); }

  /// Value access; throws std::logic_error (carrying the error message)
  /// when the result holds an error, so unchecked access fails loudly.
  [[nodiscard]] const T& value() const& {
    if (!ok()) {
      throw std::logic_error{"Result::value() on error: " + error().message};
    }
    return std::get<T>(value_);
  }
  [[nodiscard]] T& value() & {
    if (!ok()) {
      throw std::logic_error{"Result::value() on error: " + error().message};
    }
    return std::get<T>(value_);
  }
  [[nodiscard]] T&& value() && {
    if (!ok()) {
      throw std::logic_error{"Result::value() on error: " + error().message};
    }
    return std::get<T>(std::move(value_));
  }

  /// Error access; only meaningful when !ok().
  [[nodiscard]] const Error& error() const {
    if (ok()) throw std::logic_error{"Result::error() on a value"};
    return std::get<Error>(value_);
  }

 private:
  std::variant<T, Error> value_;
};

}  // namespace glove::api

#endif  // GLOVE_API_ERROR_HPP
