// Loader for the Orange "Data for Development" (D4D) challenge file
// layout — the exact format of the datasets the paper evaluates on
// (Sec. 3), so that holders of the real traces can run this library
// unchanged:
//
//   * antenna file:  antenna_id,lat,lon            (SITE_ARR_LONLAT.CSV)
//   * trace file:    user_id,timestamp,antenna_id  (SET2/SET3 fine-grained
//                    mobility), timestamp formatted YYYY-MM-DD HH:MM:SS
//
// Events referencing unknown antennas are rejected (they indicate a
// mismatched antenna file).  Timestamps are converted to minutes from the
// first midnight on or before the earliest event, preserving the paper's
// 1-minute granularity.

#ifndef GLOVE_CDR_D4D_HPP
#define GLOVE_CDR_D4D_HPP

#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "glove/cdr/builder.hpp"
#include "glove/geo/geo.hpp"

namespace glove::cdr {

/// Antenna registry: id -> geographic position.
using AntennaTable = std::unordered_map<long long, geo::LatLon>;

/// Reads a D4D antenna file ("antenna_id,lat,lon", '#' comments allowed).
[[nodiscard]] AntennaTable read_d4d_antennas(std::istream& in);

/// Parses "YYYY-MM-DD HH:MM[:SS]" into minutes since 2000-01-01 00:00
/// (proleptic Gregorian, no leap seconds, UTC assumed — offsets cancel
/// because only differences matter).  Throws std::invalid_argument on
/// malformed input.
[[nodiscard]] double parse_d4d_timestamp_min(std::string_view text);

/// Result of loading a D4D trace.
struct D4DTrace {
  std::vector<CdrEvent> events;  ///< time_min rebased to the trace start
  double origin_min = 0.0;       ///< absolute minutes of the rebased zero
};

/// Reads a D4D trace ("user_id,timestamp,antenna_id") against an antenna
/// table.  Events are rebased so the earliest midnight maps to t = 0
/// (keeping day boundaries aligned for the diurnal analyses).
[[nodiscard]] D4DTrace read_d4d_trace(std::istream& in,
                                      const AntennaTable& antennas);

/// File-path wrappers; throw std::runtime_error when a file cannot be
/// opened.
[[nodiscard]] AntennaTable read_d4d_antennas_file(const std::string& path);
[[nodiscard]] D4DTrace read_d4d_trace_file(const std::string& path,
                                           const AntennaTable& antennas);

/// One row of a D4D trace in its native reference system.
struct D4DRecord {
  UserId user = 0;
  double time_min = 0.0;  ///< minutes since 2000-01-01 00:00
  long long antenna = 0;
};

/// Writes records in the D4D trace layout ("user,YYYY-MM-DD HH:MM:SS,
/// antenna"); used by tests and to export the synthetic substrate in the
/// challenge's format.
void write_d4d_trace(std::ostream& out, const std::vector<D4DRecord>& records);

/// Formats minutes since 2000-01-01 as "YYYY-MM-DD HH:MM:SS" (inverse of
/// parse_d4d_timestamp_min; sub-minute part truncated).
[[nodiscard]] std::string format_d4d_timestamp(double time_min);

}  // namespace glove::cdr

#endif  // GLOVE_CDR_D4D_HPP
