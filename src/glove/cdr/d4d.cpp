#include "glove/cdr/d4d.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "glove/util/csv.hpp"

namespace glove::cdr {

namespace {

/// Days from 2000-01-01 to the given civil date (proleptic Gregorian;
/// Howard Hinnant's algorithm rebased from the 1970 epoch).
long long days_from_civil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const long long era = (y >= 0 ? y : y - 399) / 400;
  const auto yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153 * (m > 2 ? m - 3 : m + 9) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  const long long days_since_1970 = era * 146097 +
                                    static_cast<long long>(doe) - 719468;
  return days_since_1970 - 10957;  // 10957 days from 1970 to 2000
}

/// Civil date from days since 2000-01-01.
void civil_from_days(long long z, int& y, unsigned& m, unsigned& d) {
  z += 719468 + 10957;
  const long long era = (z >= 0 ? z : z - 146096) / 146097;
  const auto doe = static_cast<unsigned long long>(z - era * 146097);
  const auto yoe = static_cast<unsigned>(
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365);
  y = static_cast<int>(yoe) + static_cast<int>(era) * 400;
  const auto doy =
      static_cast<unsigned>(doe - (365ULL * yoe + yoe / 4 - yoe / 100));
  const unsigned mp = (5 * doy + 2) / 153;
  d = doy - (153 * mp + 2) / 5 + 1;
  m = mp < 10 ? mp + 3 : mp - 9;
  y += m <= 2;
}

int parse_component(std::string_view text, std::size_t begin,
                    std::size_t length, std::string_view what) {
  if (begin + length > text.size()) {
    // glove-lint: allow(throw-context, value-level timestamp parser; row
    // callers re-anchor with context and file wrappers add the path)
    throw std::invalid_argument{"truncated D4D timestamp: '" +
                                std::string{text} + "'"};
  }
  int value = 0;
  const char* first = text.data() + begin;
  const auto [ptr, ec] = std::from_chars(first, first + length, value);
  if (ec != std::errc{} || ptr != first + length) {
    // glove-lint: allow(throw-context, value-level timestamp parser; row
    // callers re-anchor with context and file wrappers add the path)
    throw std::invalid_argument{"bad " + std::string{what} +
                                " in D4D timestamp: '" + std::string{text} +
                                "'"};
  }
  return value;
}

}  // namespace

double parse_d4d_timestamp_min(std::string_view text) {
  // "YYYY-MM-DD HH:MM[:SS]"
  if (text.size() < 16 || text[4] != '-' || text[7] != '-' ||
      (text[10] != ' ' && text[10] != 'T') || text[13] != ':') {
    // glove-lint: allow(throw-context, value-level timestamp parser; row
    // callers re-anchor with context and file wrappers add the path)
    throw std::invalid_argument{"malformed D4D timestamp: '" +
                                std::string{text} + "'"};
  }
  const int year = parse_component(text, 0, 4, "year");
  const int month = parse_component(text, 5, 2, "month");
  const int day = parse_component(text, 8, 2, "day");
  const int hour = parse_component(text, 11, 2, "hour");
  const int minute = parse_component(text, 14, 2, "minute");
  int second = 0;
  if (text.size() >= 19) {
    if (text[16] != ':') {
      // glove-lint: allow(throw-context, value-level timestamp parser; row
      // callers re-anchor with context and file wrappers add the path)
      throw std::invalid_argument{"malformed D4D timestamp: '" +
                                  std::string{text} + "'"};
    }
    second = parse_component(text, 17, 2, "second");
  }
  if (month < 1 || month > 12 || day < 1 || day > 31 || hour > 23 ||
      minute > 59 || second > 60) {
    // glove-lint: allow(throw-context, value-level timestamp parser; row
    // callers re-anchor with context and file wrappers add the path)
    throw std::invalid_argument{"out-of-range D4D timestamp: '" +
                                std::string{text} + "'"};
  }
  const long long days = days_from_civil(year, static_cast<unsigned>(month),
                                         static_cast<unsigned>(day));
  return static_cast<double>(days) * 1440.0 + hour * 60.0 + minute +
         second / 60.0;
}

std::string format_d4d_timestamp(double time_min) {
  const double floored = std::floor(time_min);
  auto total_minutes = static_cast<long long>(floored);
  long long days = total_minutes / 1440;
  long long in_day = total_minutes % 1440;
  if (in_day < 0) {
    in_day += 1440;
    --days;
  }
  int year = 0;
  unsigned month = 0;
  unsigned day = 0;
  civil_from_days(days, year, month, day);
  const auto seconds = static_cast<int>(
      std::min(std::round((time_min - floored) * 60.0), 59.0));
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%04d-%02u-%02u %02d:%02d:%02d", year,
                month, day, static_cast<int>(in_day / 60),
                static_cast<int>(in_day % 60), seconds);
  return std::string{buffer};
}

AntennaTable read_d4d_antennas(std::istream& in) {
  util::CsvReader reader{in};
  AntennaTable table;
  std::vector<std::string_view> fields;
  while (reader.next(fields)) {
    const std::string context =
        "D4D antenna row at line " + std::to_string(reader.line_number());
    if (fields.size() != 3) {
      throw std::invalid_argument{context + ": expected 3 fields"};
    }
    const auto id = util::parse_integer<long long>(fields[0], "antenna id",
                                                   context);
    const double lat = util::parse_double(fields[1], context);
    const double lon = util::parse_double(fields[2], context);
    check_antenna(geo::LatLon{lat, lon}, context);
    if (!table.emplace(id, geo::LatLon{lat, lon}).second) {
      throw std::invalid_argument{context + ": duplicate antenna id " +
                                  std::to_string(id)};
    }
  }
  return table;
}

D4DTrace read_d4d_trace(std::istream& in, const AntennaTable& antennas) {
  util::CsvReader reader{in};
  D4DTrace trace;
  std::vector<std::string_view> fields;
  double earliest = std::numeric_limits<double>::infinity();
  std::vector<D4DRecord> records;
  while (reader.next(fields)) {
    const std::string context =
        "D4D trace row at line " + std::to_string(reader.line_number());
    if (fields.size() != 3) {
      throw std::invalid_argument{context + ": expected 3 fields"};
    }
    D4DRecord record;
    record.user = util::parse_integer<UserId>(fields[0], "user id", context);
    try {
      record.time_min = parse_d4d_timestamp_min(fields[1]);
    } catch (const std::invalid_argument& e) {
      // The timestamp helpers are value-level; re-anchor their failures
      // to the offending row.
      throw std::invalid_argument{context + ": " + e.what()};
    }
    record.antenna =
        util::parse_integer<long long>(fields[2], "antenna id", context);
    if (!antennas.contains(record.antenna)) {
      throw std::invalid_argument{context + ": unknown antenna id " +
                                  std::to_string(record.antenna)};
    }
    earliest = std::min(earliest, record.time_min);
    records.push_back(record);
  }
  if (records.empty()) return trace;

  // Rebase to the midnight on or before the earliest event so that day
  // boundaries stay aligned for diurnal analyses.
  trace.origin_min = std::floor(earliest / 1440.0) * 1440.0;
  trace.events.reserve(records.size());
  for (const D4DRecord& record : records) {
    CdrEvent event;
    event.user = record.user;
    event.time_min = record.time_min - trace.origin_min;
    event.antenna = antennas.at(record.antenna);
    trace.events.push_back(event);
  }
  return trace;
}

AntennaTable read_d4d_antennas_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open for reading: " + path};
  try {
    return read_d4d_antennas(in);
  } catch (const std::invalid_argument& e) {
    // Same convention as cdr/io's with_path_context: parse errors from
    // the stream layer gain the offending file's path.
    throw std::invalid_argument{path + ": " + e.what()};
  }
}

D4DTrace read_d4d_trace_file(const std::string& path,
                             const AntennaTable& antennas) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open for reading: " + path};
  try {
    return read_d4d_trace(in, antennas);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{path + ": " + e.what()};
  }
}

void write_d4d_trace(std::ostream& out,
                     const std::vector<D4DRecord>& records) {
  util::CsvWriter writer{out};
  writer.comment("D4D trace: user_id,timestamp,antenna_id");
  for (const D4DRecord& record : records) {
    writer.row({std::to_string(record.user),
                format_d4d_timestamp(record.time_min),
                std::to_string(record.antenna)});
  }
}

}  // namespace glove::cdr
