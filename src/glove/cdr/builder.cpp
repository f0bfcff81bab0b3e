#include "glove/cdr/builder.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

namespace glove::cdr {

namespace {

/// Discretized event key used for deduplication: (cell, minute index).
struct SampleKey {
  geo::GridCell cell;
  long long minute;

  friend bool operator<(const SampleKey& a, const SampleKey& b) {
    if (a.cell.ix != b.cell.ix) return a.cell.ix < b.cell.ix;
    if (a.cell.iy != b.cell.iy) return a.cell.iy < b.cell.iy;
    return a.minute < b.minute;
  }
};

/// floor(time_min / step_min), refused when it does not fit a long long
/// minute index: casting it would be undefined behaviour.
long long minute_index(double time_min, double step_min) {
  const double index = std::floor(time_min / step_min);
  // 2^63 is the first double past the range; the negated comparison
  // rejects NaN too.
  if (!(index >= -0x1p63 && index < 0x1p63)) {
    // glove-lint: allow(throw-context, an event's time has no file at this
    // layer; the readers check finiteness with the path)
    throw std::out_of_range{
        "build_fingerprints: event time off the minute index range"};
  }
  return static_cast<long long>(index);
}

FingerprintDataset build_from_planar(const std::vector<PlanarEvent>& events,
                                     const BuilderConfig& config) {
  if (!(config.grid_cell_m > 0.0) || !(config.time_step_min > 0.0)) {
    // glove-lint: allow(throw-context, builder config precondition; no
    // file is involved at this layer)
    throw std::invalid_argument{"builder granularities must be positive"};
  }
  const geo::Grid grid{config.grid_cell_m};

  // Group events per user, discretizing as we go.
  std::map<UserId, std::map<SampleKey, Sample>> per_user;
  for (const PlanarEvent& ev : events) {
    const geo::GridCell cell = grid.cell_of(ev.position);
    const long long minute = minute_index(ev.time_min, config.time_step_min);
    const SampleKey key{cell, minute};
    auto& samples = per_user[ev.user];
    if (config.deduplicate && samples.contains(key)) continue;
    const geo::PlanarPoint sw = grid.cell_origin(cell);
    Sample s;
    s.sigma = SpatialExtent{sw.x_m, config.grid_cell_m, sw.y_m,
                            config.grid_cell_m};
    s.tau = TemporalExtent{static_cast<double>(minute) * config.time_step_min,
                           config.time_step_min};
    samples.insert_or_assign(key, s);
  }

  std::vector<Fingerprint> fingerprints;
  fingerprints.reserve(per_user.size());
  for (auto& [user, samples] : per_user) {
    std::vector<Sample> list;
    list.reserve(samples.size());
    for (auto& [key, sample] : samples) list.push_back(sample);
    fingerprints.emplace_back(user, std::move(list));
  }
  return FingerprintDataset{std::move(fingerprints)};
}

}  // namespace

void check_antenna(const geo::LatLon& antenna, const std::string& context) {
  // The negated comparisons reject NaN too.
  if (!(std::abs(antenna.lat_deg) <= 90.0)) {
    throw std::invalid_argument{context +
                                ": lat must be finite and in [-90, 90]"};
  }
  if (!(std::abs(antenna.lon_deg) <= 180.0)) {
    throw std::invalid_argument{context +
                                ": lon must be finite and in [-180, 180]"};
  }
}

FingerprintDataset build_fingerprints(const std::vector<CdrEvent>& events,
                                      const BuilderConfig& config) {
  const geo::LambertAzimuthalEqualArea projection{config.projection_origin};
  std::vector<PlanarEvent> planar;
  planar.reserve(events.size());
  for (const CdrEvent& ev : events) {
    planar.push_back(
        PlanarEvent{ev.user, ev.time_min, projection.project(ev.antenna)});
  }
  return build_from_planar(planar, config);
}

FingerprintDataset build_fingerprints(const std::vector<PlanarEvent>& events,
                                      const BuilderConfig& config) {
  return build_from_planar(events, config);
}

}  // namespace glove::cdr
