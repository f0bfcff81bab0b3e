#include "glove/geo/geo.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace glove::geo {

namespace {

constexpr double kDegToRad = std::numbers::pi / 180.0;
constexpr double kRadToDeg = 180.0 / std::numbers::pi;

/// floor(coordinate / cell), refused when it does not fit an int32_t cell
/// index: casting it would be undefined behaviour.
std::int32_t cell_index(double coordinate_m, double cell_m) {
  const double index = std::floor(coordinate_m / cell_m);
  // The negated comparison rejects NaN too.
  if (!(index >= std::numeric_limits<std::int32_t>::min() &&
        index <= std::numeric_limits<std::int32_t>::max())) {
    throw std::out_of_range{"Grid::cell_of: coordinate off the int32 grid"};
  }
  return static_cast<std::int32_t>(index);
}

}  // namespace

double haversine_m(LatLon a, LatLon b) {
  const double lat1 = a.lat_deg * kDegToRad;
  const double lat2 = b.lat_deg * kDegToRad;
  const double dlat = (b.lat_deg - a.lat_deg) * kDegToRad;
  const double dlon = (b.lon_deg - a.lon_deg) * kDegToRad;
  const double s1 = std::sin(dlat / 2);
  const double s2 = std::sin(dlon / 2);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(h)));
}

double planar_distance_m(PlanarPoint a, PlanarPoint b) {
  return std::hypot(a.x_m - b.x_m, a.y_m - b.y_m);
}

LambertAzimuthalEqualArea::LambertAzimuthalEqualArea(LatLon origin) noexcept
    : origin_{origin},
      sin_lat0_{std::sin(origin.lat_deg * kDegToRad)},
      cos_lat0_{std::cos(origin.lat_deg * kDegToRad)},
      lon0_rad_{origin.lon_deg * kDegToRad} {}

PlanarPoint LambertAzimuthalEqualArea::project(LatLon p) const noexcept {
  const double lat = p.lat_deg * kDegToRad;
  const double dlon = p.lon_deg * kDegToRad - lon0_rad_;
  const double sin_lat = std::sin(lat);
  const double cos_lat = std::cos(lat);
  const double cos_dlon = std::cos(dlon);
  const double denom =
      1.0 + sin_lat0_ * sin_lat + cos_lat0_ * cos_lat * cos_dlon;
  // denom -> 0 only at the antipode of the origin; clamp to keep the map
  // total (antipodal inputs project to a very distant but finite point).
  const double kp = std::sqrt(2.0 / std::max(denom, 1e-12));
  return PlanarPoint{
      kEarthRadiusM * kp * cos_lat * std::sin(dlon),
      kEarthRadiusM * kp *
          (cos_lat0_ * sin_lat - sin_lat0_ * cos_lat * cos_dlon)};
}

LatLon LambertAzimuthalEqualArea::inverse(PlanarPoint p) const noexcept {
  const double rho = std::hypot(p.x_m, p.y_m);
  if (rho < 1e-9) return origin_;
  const double c = 2.0 * std::asin(std::min(1.0, rho / (2.0 * kEarthRadiusM)));
  const double sin_c = std::sin(c);
  const double cos_c = std::cos(c);
  const double lat = std::asin(cos_c * sin_lat0_ +
                               p.y_m * sin_c * cos_lat0_ / rho);
  const double lon =
      lon0_rad_ +
      std::atan2(p.x_m * sin_c,
                 rho * cos_lat0_ * cos_c - p.y_m * sin_lat0_ * sin_c);
  return LatLon{lat * kRadToDeg, lon * kRadToDeg};
}

std::uint64_t morton_interleave(std::uint32_t x, std::uint32_t y) noexcept {
  std::uint64_t code = 0;
  for (int bit = 0; bit < 32; ++bit) {
    code |= static_cast<std::uint64_t>((x >> bit) & 1U) << (2 * bit);
    code |= static_cast<std::uint64_t>((y >> bit) & 1U) << (2 * bit + 1);
  }
  return code;
}

Grid::Grid(double cell_size_m) : cell_m_{cell_size_m} {
  if (!(cell_size_m > 0.0)) {
    throw std::invalid_argument{"Grid cell size must be positive"};
  }
}

GridCell Grid::cell_of(PlanarPoint p) const {
  return GridCell{cell_index(p.x_m, cell_m_), cell_index(p.y_m, cell_m_)};
}

PlanarPoint Grid::cell_origin(GridCell c) const noexcept {
  return PlanarPoint{c.ix * cell_m_, c.iy * cell_m_};
}

PlanarPoint Grid::cell_center(GridCell c) const noexcept {
  return PlanarPoint{(c.ix + 0.5) * cell_m_, (c.iy + 0.5) * cell_m_};
}

PlanarPoint Grid::snap(PlanarPoint p) const {
  return cell_origin(cell_of(p));
}

}  // namespace glove::geo
