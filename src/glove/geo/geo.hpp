// Geographic primitives: WGS-84 coordinates, great-circle distance, the
// Lambert azimuthal equal-area projection the paper uses to map antenna
// positions to a planar coordinate system (Sec. 3), and the regular grid
// used to discretize positions at 100 m granularity.

#ifndef GLOVE_GEO_GEO_HPP
#define GLOVE_GEO_GEO_HPP

#include <cstdint>
#include <functional>

namespace glove::geo {

/// Authalic Earth radius in metres (sphere of equal surface area as the
/// WGS-84 ellipsoid); the natural choice for an equal-area projection.
inline constexpr double kEarthRadiusM = 6371007.1809;

/// A geographic position in decimal degrees.
struct LatLon {
  double lat_deg = 0.0;
  double lon_deg = 0.0;
};

/// A position in the projected plane, metres from the projection origin.
struct PlanarPoint {
  double x_m = 0.0;
  double y_m = 0.0;
};

/// Great-circle (haversine) distance between two coordinates, metres.
[[nodiscard]] double haversine_m(LatLon a, LatLon b);

/// Euclidean distance in the projected plane, metres.
[[nodiscard]] double planar_distance_m(PlanarPoint a, PlanarPoint b);

/// Lambert azimuthal equal-area projection centred on a reference point.
///
/// Equal-area is what the paper picks because spatial generalization reasons
/// about *areas* of bounding rectangles: an equal-area mapping keeps the
/// accuracy-loss semantics uniform over a nationwide region.
class LambertAzimuthalEqualArea {
 public:
  /// `origin` becomes planar (0, 0).
  explicit LambertAzimuthalEqualArea(LatLon origin) noexcept;

  /// Forward projection: geographic -> planar metres.
  [[nodiscard]] PlanarPoint project(LatLon p) const noexcept;

  /// Inverse projection: planar metres -> geographic.  Exact inverse of
  /// `project` up to floating-point rounding for points within the
  /// projection's domain (everything but the antipode).
  [[nodiscard]] LatLon inverse(PlanarPoint p) const noexcept;

  [[nodiscard]] LatLon origin() const noexcept { return origin_; }

 private:
  LatLon origin_;
  double sin_lat0_;
  double cos_lat0_;
  double lon0_rad_;
};

/// Interleaves the bits of `x` (even positions) and `y` (odd positions)
/// into one 64-bit Morton (Z-curve) code.  Shared by the locality sorts
/// (reconcile chunks, shard tiling): nearby (x, y) pairs map to
/// nearby codes, so sorting by code keeps geographic neighbours together.
[[nodiscard]] std::uint64_t morton_interleave(std::uint32_t x,
                                              std::uint32_t y) noexcept;

/// A cell index on the regular discretization grid.
struct GridCell {
  std::int32_t ix = 0;
  std::int32_t iy = 0;

  friend bool operator==(GridCell, GridCell) = default;
};

/// Regular square grid over the projected plane.  The paper discretizes
/// positions on a 100 m grid, the finest spatial granularity considered;
/// at that size each cell contains at most one antenna, so discretization
/// is lossless (Sec. 3, footnote 2).
class Grid {
 public:
  explicit Grid(double cell_size_m = 100.0);

  [[nodiscard]] double cell_size_m() const noexcept { return cell_m_; }

  /// Cell containing a planar point (std::out_of_range off the int32 grid).
  [[nodiscard]] GridCell cell_of(PlanarPoint p) const;

  /// South-west corner of a cell, i.e. the (x, y) the paper's sample tuple
  /// sigma carries together with dx = dy = cell size.
  [[nodiscard]] PlanarPoint cell_origin(GridCell c) const noexcept;

  /// Centre of a cell.
  [[nodiscard]] PlanarPoint cell_center(GridCell c) const noexcept;

  /// Snaps a planar point to its cell's south-west corner.
  [[nodiscard]] PlanarPoint snap(PlanarPoint p) const;

 private:
  double cell_m_;
};

}  // namespace glove::geo

template <>
struct std::hash<glove::geo::GridCell> {
  std::size_t operator()(glove::geo::GridCell c) const noexcept {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.ix)) << 32) |
        static_cast<std::uint32_t>(c.iy);
    // SplitMix64-style finalizer.
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

#endif  // GLOVE_GEO_GEO_HPP
