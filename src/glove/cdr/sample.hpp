// The spatiotemporal sample: the unit of movement micro-data (Sec. 2.1).
//
// Following the paper's notation, a sample carries a spatial tuple
// sigma = (x, dx, y, dy) describing the bounding rectangle where the user
// was located, and a temporal tuple tau = (t, dt) meaning the user was in
// that rectangle at some point within [t, t + dt].  In an original (not yet
// generalized) dataset dx = dy = 100 m and dt = 1 min (Sec. 3).

#ifndef GLOVE_CDR_SAMPLE_HPP
#define GLOVE_CDR_SAMPLE_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "glove/util/dataset_error.hpp"

namespace glove::cdr {

/// Spatial component sigma = (x, dx, y, dy): the axis-aligned rectangle
/// [x, x+dx] x [y, y+dy] in projected metres.
struct SpatialExtent {
  double x = 0.0;   ///< west edge, metres
  double dx = 0.0;  ///< width, metres
  double y = 0.0;   ///< south edge, metres
  double dy = 0.0;  ///< height, metres

  [[nodiscard]] constexpr double x_end() const noexcept { return x + dx; }
  [[nodiscard]] constexpr double y_end() const noexcept { return y + dy; }
  /// Side of the bounding rectangle; the paper's "position accuracy".
  [[nodiscard]] constexpr double accuracy_m() const noexcept {
    return std::max(dx, dy);
  }

  friend constexpr bool operator==(const SpatialExtent&,
                                   const SpatialExtent&) = default;
};

/// Temporal component tau = (t, dt): the interval [t, t+dt] in minutes from
/// the dataset epoch.
struct TemporalExtent {
  double t = 0.0;   ///< interval start, minutes
  double dt = 0.0;  ///< interval length, minutes

  [[nodiscard]] constexpr double t_end() const noexcept { return t + dt; }
  /// Interval length; the paper's "time accuracy".
  [[nodiscard]] constexpr double accuracy_min() const noexcept { return dt; }

  friend constexpr bool operator==(const TemporalExtent&,
                                   const TemporalExtent&) = default;
};

/// One spatiotemporal sample of a mobile fingerprint.
struct Sample {
  SpatialExtent sigma;
  TemporalExtent tau;
  /// Number of original (pre-anonymization) samples this sample represents.
  /// 1 for raw data; grows when GLOVE merges samples.  Used to account for
  /// per-original-sample deletion statistics under suppression.
  std::uint32_t contributors = 1;

  friend constexpr bool operator==(const Sample&, const Sample&) = default;
};

/// Strict weak order by interval start time (merge and reshape operate on
/// time-sorted fingerprints).
[[nodiscard]] constexpr bool by_time(const Sample& a,
                                     const Sample& b) noexcept {
  if (a.tau.t != b.tau.t) return a.tau.t < b.tau.t;
  return a.tau.t_end() < b.tau.t_end();
}

/// True when the two samples' time intervals overlap (sharing more than a
/// single boundary instant), the condition triggering reshape (Fig. 6b).
[[nodiscard]] constexpr bool time_overlaps(const Sample& a,
                                           const Sample& b) noexcept {
  return a.tau.t < b.tau.t_end() && b.tau.t < a.tau.t_end();
}

/// Throws util::DatasetError ("<context>: <what> must be finite") when a
/// decoded value is NaN or infinite.
inline void require_finite(double value, std::string_view what,
                           const std::string& context) {
  if (!std::isfinite(value)) {
    throw util::DatasetError{context + ": " + std::string{what} +
                             " must be finite"};
  }
}

/// The dataset decoders' sample check: every field finite and dx, dy, dt
/// non-negative, the geometry the stretch lower bound (and so every exact
/// GLOVE decision) relies on.  Throws util::DatasetError prefixed by
/// `context`, which names the source and the offending row or block.
inline void check_sample(const Sample& s, const std::string& context) {
  require_finite(s.sigma.x, "x", context);
  require_finite(s.sigma.dx, "dx", context);
  require_finite(s.sigma.y, "y", context);
  require_finite(s.sigma.dy, "dy", context);
  require_finite(s.tau.t, "t", context);
  require_finite(s.tau.dt, "dt", context);
  if (s.sigma.dx < 0.0 || s.sigma.dy < 0.0 || s.tau.dt < 0.0) {
    throw util::DatasetError{context + ": dx, dy and dt must be non-negative"};
  }
}

}  // namespace glove::cdr

#endif  // GLOVE_CDR_SAMPLE_HPP
