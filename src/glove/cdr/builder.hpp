// From raw CDR events to mobile fingerprints (Sec. 3 pipeline):
// project antenna coordinates with the Lambert azimuthal equal-area
// projection, discretize on a 100 m grid, round timestamps to the minute,
// group per user, and deduplicate identical samples.

#ifndef GLOVE_CDR_BUILDER_HPP
#define GLOVE_CDR_BUILDER_HPP

#include <string>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/geo/geo.hpp"

namespace glove::cdr {

/// One logged network event: a subscriber seen at an antenna at a time.
struct CdrEvent {
  UserId user = 0;
  double time_min = 0.0;  ///< minutes from the dataset epoch
  geo::LatLon antenna;    ///< antenna position (decimal degrees)
};

/// The trace readers' antenna check: lat finite and in [-90, 90], lon
/// finite and in [-180, 180] degrees.  Throws std::invalid_argument
/// prefixed by `context`, which names the source and the offending row.
void check_antenna(const geo::LatLon& antenna, const std::string& context);

/// A CDR event already expressed in projected planar coordinates; useful
/// when the trace source works natively in metres (e.g. the synthesizer).
struct PlanarEvent {
  UserId user = 0;
  double time_min = 0.0;
  geo::PlanarPoint position;
};

/// Configuration of the fingerprint construction pipeline.
struct BuilderConfig {
  /// Projection origin; choose a point central to the covered region.
  geo::LatLon projection_origin{};
  /// Spatial discretization step (paper: 100 m).
  double grid_cell_m = 100.0;
  /// Temporal discretization step (paper: 1 min).
  double time_step_min = 1.0;
  /// Drop events that duplicate an existing sample of the same user
  /// (same grid cell and same minute).  Multiple network events within a
  /// minute at one antenna carry no extra trajectory information.
  bool deduplicate = true;
};

/// Builds a fingerprint dataset from geographic CDR events.  Throws
/// std::out_of_range when an event's grid cell or minute index
/// (floor(time_min / time_step_min)) does not fit its integer type, NaN
/// included, as geo::Grid::cell_of does for a coordinate.
[[nodiscard]] FingerprintDataset build_fingerprints(
    const std::vector<CdrEvent>& events, const BuilderConfig& config);

/// Builds a fingerprint dataset from planar events (already projected),
/// with the same refusals.
[[nodiscard]] FingerprintDataset build_fingerprints(
    const std::vector<PlanarEvent>& events, const BuilderConfig& config);

}  // namespace glove::cdr

#endif  // GLOVE_CDR_BUILDER_HPP
