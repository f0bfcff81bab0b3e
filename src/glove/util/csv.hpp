// Minimal CSV reading/writing for CDR traces and anonymized datasets.
//
// The dialect is deliberately simple (comma separator, no embedded commas in
// fields, '#'-prefixed comment lines), matching the flat numeric traces the
// D4D challenge distributed and that this library emits.

#ifndef GLOVE_UTIL_CSV_HPP
#define GLOVE_UTIL_CSV_HPP

#include <charconv>
#include <concepts>
#include <iosfwd>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace glove::util {

/// Splits one CSV line into fields at each comma.  Leading/trailing
/// whitespace of each field is trimmed.  Empty input yields an empty
/// vector.
[[nodiscard]] std::vector<std::string_view> split_csv_line(
    std::string_view line);

/// Streaming CSV reader over an istream.  Skips blank lines and lines whose
/// first non-space character is '#'.
class CsvReader {
 public:
  explicit CsvReader(std::istream& in);

  /// Reads the next data row into `fields` (views into an internal buffer
  /// valid until the next call).  Returns false at end of input.
  bool next(std::vector<std::string_view>& fields);

  /// Number of data rows returned so far.
  [[nodiscard]] std::size_t rows_read() const noexcept { return rows_; }
  /// 1-based line number of the row most recently returned.
  [[nodiscard]] std::size_t line_number() const noexcept { return line_no_; }

  /// Restarts from the beginning of the stream (clearing an EOF state) and
  /// resets the row/line counters, so multi-pass consumers can re-read a
  /// seekable stream (files, string streams).  Throws std::runtime_error
  /// when the underlying stream cannot seek.
  void rewind();

 private:
  std::istream& in_;
  std::string buffer_;
  std::size_t rows_ = 0;
  std::size_t line_no_ = 0;
};

/// CSV writer with row-oriented API.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out);

  /// Writes a comment line ("# ...").
  void comment(std::string_view text);
  /// Writes one row, comma-separated; fields are emitted verbatim.
  void row(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
};

/// Parses a double, throwing std::invalid_argument with context on failure.
[[nodiscard]] double parse_double(std::string_view field,
                                  std::string_view context);

/// Parses a base-10 integer that fits T and is at least `min`.  Anything
/// else throws std::invalid_argument naming `what` (the field) and
/// `context` (the row's line, or the command line), so a value too large
/// for T is rejected instead of truncated.
template <std::integral T>
[[nodiscard]] T parse_integer(std::string_view field, std::string_view what,
                              std::string_view context,
                              T min = std::numeric_limits<T>::min()) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < min) {
    throw std::invalid_argument{
        "bad " + std::string{what} + " '" + std::string{field} + "' in " +
        std::string{context} + ": expected an integer in [" +
        std::to_string(min) + ", " +
        std::to_string(std::numeric_limits<T>::max()) + "]"};
  }
  return value;
}

}  // namespace glove::util

#endif  // GLOVE_UTIL_CSV_HPP
