#include "glove/core/stretch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace glove::core {

namespace {

/// Left stretch l_sigma(a, b) of eq. 5: how far a's west/south edges must
/// move to reach b's.
inline double left_stretch(const cdr::SpatialExtent& a,
                           const cdr::SpatialExtent& b) noexcept {
  return (a.x - std::min(a.x, b.x)) + (a.y - std::min(a.y, b.y));
}

/// Right stretch r_sigma(a, b) of eq. 6: how far a's east/north edges must
/// move to reach b's.
inline double right_stretch(const cdr::SpatialExtent& a,
                            const cdr::SpatialExtent& b) noexcept {
  return (std::max(a.x_end(), b.x_end()) - a.x_end()) +
         (std::max(a.y_end(), b.y_end()) - a.y_end());
}

}  // namespace

double raw_spatial_stretch_m(const cdr::SpatialExtent& a,
                             const cdr::SpatialExtent& b,
                             PairWeights weights) noexcept {
  return (left_stretch(a, b) + right_stretch(a, b)) * weights.wa +
         (left_stretch(b, a) + right_stretch(b, a)) * weights.wb;
}

double raw_spatial_stretch_m(const cdr::SpatialExtent& a, std::uint32_t na,
                             const cdr::SpatialExtent& b,
                             std::uint32_t nb) noexcept {
  return raw_spatial_stretch_m(a, b, pair_weights(na, nb));
}

double raw_temporal_stretch_min(const cdr::TemporalExtent& a,
                                const cdr::TemporalExtent& b,
                                PairWeights weights) noexcept {
  // l_tau (eq. 8) and r_tau (eq. 9) for both directions.
  const double l_ab = a.t - std::min(a.t, b.t);
  const double r_ab = std::max(a.t_end(), b.t_end()) - a.t_end();
  const double l_ba = b.t - std::min(a.t, b.t);
  const double r_ba = std::max(a.t_end(), b.t_end()) - b.t_end();
  return (l_ab + r_ab) * weights.wa + (l_ba + r_ba) * weights.wb;
}

double raw_temporal_stretch_min(const cdr::TemporalExtent& a,
                                std::uint32_t na,
                                const cdr::TemporalExtent& b,
                                std::uint32_t nb) noexcept {
  return raw_temporal_stretch_min(a, b, pair_weights(na, nb));
}

SampleStretch sample_stretch(const cdr::Sample& a, const cdr::Sample& b,
                             PairWeights weights,
                             const StretchLimits& limits) noexcept {
  const double raw_sigma = raw_spatial_stretch_m(a.sigma, b.sigma, weights);
  const double raw_tau = raw_temporal_stretch_min(a.tau, b.tau, weights);
  // eq. 2-3: linear in the granularity loss, saturating at 1.
  const double phi_sigma = std::min(raw_sigma / limits.phi_max_sigma_m, 1.0);
  const double phi_tau = std::min(raw_tau / limits.phi_max_tau_min, 1.0);
  return SampleStretch{limits.w_sigma * phi_sigma, limits.w_tau * phi_tau};
}

SampleStretch sample_stretch(const cdr::Sample& a, std::uint32_t na,
                             const cdr::Sample& b, std::uint32_t nb,
                             const StretchLimits& limits) noexcept {
  return sample_stretch(a, b, pair_weights(na, nb), limits);
}

namespace {

/// One direction of eq. 10: match each sample of `outer` to the cheapest
/// sample of `inner`, averaging over `outer`.  Adds the number of sample
/// pairs evaluated to `sample_pairs`.
///
/// Time-window pruning.  Both sample lists are sorted by start time (a
/// Fingerprint invariant).  Each outer sample scans `inner` forward from
/// the first sample starting no earlier (the pivot, which only moves
/// forward), then backward from just before it, and stops a side once the
/// temporal term alone reaches `best`: a sample starting `gap` minutes later
/// costs at least w_tau * min((gap * wb) / phi_max_tau, 1), one starting
/// earlier the same with wa.  This floor is sample_stretch's temporal term
/// with its other non-negative terms dropped, built from the same rounded
/// operations; rounding is monotone, so it never exceeds the computed delta,
/// with or without FMA contraction.  A skipped sample therefore cannot
/// lower `best`, and a minimum does not depend on scan order, so the result
/// is bit-identical to the full O(m_a * m_b) scan.  The argument needs
/// non-negative weights and positive saturation limits; other limits scan
/// every pair.  The floor is also monotone in the gap, so instead of
/// evaluating it per sample the scan recomputes a cutoff gap whenever
/// `best` drops and stops at the first sample that far away.
///
/// `flatten` keeps sample_stretch inlined in both scan loops; GCC's
/// heuristics otherwise call it out of line, which costs more than pruning
/// saves on pairs it cannot prune.
[[gnu::flatten]] double directed_stretch(
    const cdr::Fingerprint& outer, const cdr::Fingerprint& inner,
    const StretchLimits& limits, std::uint64_t& sample_pairs) noexcept {
  // The population weights are constant across the whole fingerprint pair;
  // computing them once here instead of per sample pair keeps the inner
  // loop free of the weight divisions.
  const PairWeights weights =
      pair_weights(outer.group_size(), inner.group_size());
  const bool prune = limits.w_sigma >= 0.0 && limits.w_tau >= 0.0 &&
                     limits.phi_max_sigma_m > 0.0 &&
                     limits.phi_max_tau_min > 0.0;
  const auto temporal_floor = [&](double gap, double weight) {
    return limits.w_tau *
           std::min((gap * weight) / limits.phi_max_tau_min, 1.0);
  };
  // A gap from which on the floor reaches `best`, or NaN — which no gap
  // compares >= to — when the floor never does (best above the saturated
  // floor w_tau) or no such gap is found a few ulps above the estimate.
  // The estimate inverts the floor and is nudged up by 2^-50 so that its
  // rounding errors rarely leave it short; temporal_floor has the final
  // word either way.  The cutoff may sit a few ulps above the smallest
  // such gap, so a sample right at it is still evaluated.
  constexpr double kNoCutoff = std::numeric_limits<double>::quiet_NaN();
  const auto cutoff = [&](double best, double weight) {
    if (!prune || !(limits.w_tau >= best)) return kNoCutoff;
    if (temporal_floor(0.0, weight) >= best) return 0.0;
    double gap = best / limits.w_tau * limits.phi_max_tau_min / weight *
                 (1.0 + 0x1p-50);
    for (int step = 0; step < 4; ++step) {
      if (temporal_floor(gap, weight) >= best) return gap;
      gap = std::nextafter(gap, std::numeric_limits<double>::infinity());
    }
    return kNoCutoff;
  };
  const auto outer_samples = outer.samples();
  const auto inner_samples = inner.samples();
  const std::size_t m = inner_samples.size();
  std::size_t pivot = 0;
  double total = 0.0;
  for (const cdr::Sample& so : outer_samples) {
    while (pivot < m && inner_samples[pivot].tau.t < so.tau.t) ++pivot;
    double best = 2.0;  // delta is bounded by 1
    double stop = cutoff(best, weights.wb);
    std::size_t hi = pivot;  // the scanned window ends as [lo, hi)
    for (; hi < m; ++hi) {
      const cdr::Sample& si = inner_samples[hi];
      if (si.tau.t - so.tau.t >= stop) break;
      const double d = sample_stretch(so, si, weights, limits).total();
      if (d < best) {
        best = d;
        stop = cutoff(best, weights.wb);
      }
    }
    stop = cutoff(best, weights.wa);
    std::size_t lo = pivot;
    for (; lo > 0; --lo) {
      const cdr::Sample& si = inner_samples[lo - 1];
      if (so.tau.t - si.tau.t >= stop) break;
      const double d = sample_stretch(so, si, weights, limits).total();
      if (d < best) {
        best = d;
        stop = cutoff(best, weights.wa);
      }
    }
    sample_pairs += hi - lo;
    total += best;
  }
  return total / static_cast<double>(outer_samples.size());
}

}  // namespace

double fingerprint_stretch(const cdr::Fingerprint& a,
                           const cdr::Fingerprint& b,
                           const StretchLimits& limits,
                           std::uint64_t* sample_pairs) noexcept {
  // eq. 10: iterate over the longer fingerprint, matching each sample to
  // the cheapest sample of the shorter one.  The paper leaves the equal-
  // length case unspecified; we average both directions there so the
  // measure stays symmetric (a metric-like property the greedy pass and
  // the k-gap both rely on).
  if (a.empty() || b.empty()) return 0.0;
  std::uint64_t pairs = 0;
  double stretch = 0.0;
  if (a.size() > b.size()) {
    stretch = directed_stretch(a, b, limits, pairs);
  } else if (b.size() > a.size()) {
    stretch = directed_stretch(b, a, limits, pairs);
  } else {
    stretch = (directed_stretch(a, b, limits, pairs) +
               directed_stretch(b, a, limits, pairs)) /
              2.0;
  }
  if (sample_pairs != nullptr) *sample_pairs += pairs;
  return stretch;
}

}  // namespace glove::core
