// Tiny command-line flag parser used by examples and bench harnesses.
//
// Supports "--name=value" and "--name value" syntax plus boolean switches.
// Unknown flags raise an error with the list of registered names, so typos
// in experiment scripts fail loudly instead of silently using defaults.

#ifndef GLOVE_UTIL_FLAGS_HPP
#define GLOVE_UTIL_FLAGS_HPP

#include <concepts>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "glove/util/csv.hpp"

namespace glove::util {

/// Declarative flag set: register flags with defaults, then parse argv.
class Flags {
 public:
  /// `program_help` is printed by `usage()` above the flag list.
  explicit Flags(std::string program_help);

  Flags& define(std::string name, std::string default_value,
                std::string help);

  /// Enum-valued flag: the value must be one of `choices`.  The default
  /// must be a choice (std::invalid_argument otherwise); parse() rejects
  /// any other value, listing the valid choices.  Replaces per-binary
  /// string matching for flags such as --strategy.
  Flags& define_enum(std::string name, std::string default_value,
                     std::vector<std::string> choices, std::string help);

  /// Parses argv (excluding argv[0]).  Throws std::invalid_argument on
  /// unknown flags or missing values.  "--help" sets `help_requested()`.
  void parse(int argc, const char* const* argv);

  [[nodiscard]] bool help_requested() const noexcept { return help_; }
  [[nodiscard]] std::string usage() const;

  [[nodiscard]] const std::string& get(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  /// The flag's value as a T, range-checked by parse_integer: a value
  /// that does not fit T throws std::invalid_argument naming the flag,
  /// never a truncation.
  template <std::integral T = long long>
  [[nodiscard]] T get_int(std::string_view name) const {
    return parse_integer<T>(get(name), "--" + std::string{name},
                            "command line");
  }
  [[nodiscard]] bool get_bool(std::string_view name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  struct Entry {
    std::string value;
    std::string default_value;
    std::string help;
    std::vector<std::string> choices;  // empty = any value accepted
  };

  /// Throws std::invalid_argument when `value` is not a valid choice.
  static void check_choice(std::string_view name, const Entry& entry,
                           std::string_view value);

  const Entry& entry(std::string_view name) const;

  std::string program_help_;
  std::map<std::string, Entry, std::less<>> entries_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

/// Reads environment variable `name` as integer, returning `fallback` when
/// unset or unparsable.  Used for GLOVE_USERS / GLOVE_DAYS / GLOVE_SEED
/// bench-scaling overrides.
[[nodiscard]] long long env_int(const char* name, long long fallback);

/// Reads environment variable `name` as double with fallback.
[[nodiscard]] double env_double(const char* name, double fallback);

}  // namespace glove::util

#endif  // GLOVE_UTIL_FLAGS_HPP
