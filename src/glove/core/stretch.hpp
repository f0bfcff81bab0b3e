// The anonymizability metrics of Sec. 4:
//
//   * sample stretch effort  delta_ab(i, j)   (eq. 1-9)  — the spatiotemporal
//     loss of accuracy required to merge two samples via generalization;
//   * fingerprint stretch effort  Delta_ab    (eq. 10)   — the average
//     per-sample effort to merge two whole fingerprints;
//   * k-gap  Delta_a^k                        (eq. 11)   — the average
//     effort to the k-1 nearest fingerprints (kgap.hpp).
//
// All efforts are normalized to [0, 1] by the spatial/temporal saturation
// thresholds phi_max (footnote 3: 20 km and 8 h, chosen so that ~0.5 km of
// spatial generalization weighs like ~15 min of temporal generalization)
// and weighted by w_sigma = w_tau = 1/2.  These are the paper's constants,
// not run knobs: every stretch, bound and k-gap of this library uses them.

#ifndef GLOVE_CORE_STRETCH_HPP
#define GLOVE_CORE_STRETCH_HPP

#include <cstdint>

#include "glove/cdr/fingerprint.hpp"
#include "glove/cdr/sample.hpp"

namespace glove::core {

/// phi_max_sigma of eq. 2: the spatial stretch (metres) above which
/// information loss saturates at 1.
inline constexpr double kPhiMaxSigmaM = 20'000.0;
/// phi_max_tau of eq. 3: the temporal stretch (minutes) saturating at 1.
inline constexpr double kPhiMaxTauMin = 480.0;
/// w_sigma and w_tau of eq. 1: the dimension weights, both 1/2 so that
/// delta stays within [0, 1].
inline constexpr double kWSigma = 0.5;
inline constexpr double kWTau = 0.5;

// fingerprint_stretch's time-window pruning and the lower bounds of
// scalability.hpp drop non-negative terms of eq. 1-3; that holds only for
// positive saturation thresholds and non-negative weights.
static_assert(kPhiMaxSigmaM > 0.0 && kPhiMaxTauMin > 0.0 && kWSigma >= 0.0 &&
                  kWTau >= 0.0,
              "the stretch bounds need positive thresholds and weights >= 0");

/// The two weighted components of a sample stretch effort:
/// spatial = w_sigma * phi_sigma, temporal = w_tau * phi_tau.
struct SampleStretch {
  double spatial = 0.0;
  double temporal = 0.0;

  /// delta_ab(i, j) of eq. 1.
  [[nodiscard]] constexpr double total() const noexcept {
    return spatial + temporal;
  }
};

/// Population weights of eq. 4/7 for one fingerprint pair.  They depend
/// only on the two group sizes, so hot loops that evaluate many sample
/// pairs of the same fingerprint pair (merge matching, eq. 10) compute
/// them once instead of per sample pair.
struct PairWeights {
  double wa = 0.5;
  double wb = 0.5;
};

[[nodiscard]] inline PairWeights pair_weights(std::uint32_t na,
                                              std::uint32_t nb) noexcept {
  const double n = static_cast<double>(na) + static_cast<double>(nb);
  return PairWeights{static_cast<double>(na) / n,
                     static_cast<double>(nb) / n};
}

/// Raw (unnormalized) spatial stretch phi*_sigma of eq. 4, in metres:
/// the population-weighted sum of left+right expansions each rectangle
/// needs to cover the other, along both axes.
[[nodiscard]] double raw_spatial_stretch_m(const cdr::SpatialExtent& a,
                                           const cdr::SpatialExtent& b,
                                           PairWeights weights) noexcept;
[[nodiscard]] double raw_spatial_stretch_m(const cdr::SpatialExtent& a,
                                           std::uint32_t na,
                                           const cdr::SpatialExtent& b,
                                           std::uint32_t nb) noexcept;

/// Raw temporal stretch phi*_tau of eq. 7, in minutes.
[[nodiscard]] double raw_temporal_stretch_min(const cdr::TemporalExtent& a,
                                              const cdr::TemporalExtent& b,
                                              PairWeights weights) noexcept;
[[nodiscard]] double raw_temporal_stretch_min(const cdr::TemporalExtent& a,
                                              std::uint32_t na,
                                              const cdr::TemporalExtent& b,
                                              std::uint32_t nb) noexcept;

/// Sample stretch effort delta_ab(i, j) (eq. 1-3) split into components,
/// with the per-group weights precomputed by the caller.
[[nodiscard]] SampleStretch sample_stretch(
    const cdr::Sample& a, const cdr::Sample& b, PairWeights weights) noexcept;

/// Sample stretch effort delta_ab(i, j) (eq. 1-3) split into components.
/// `na` and `nb` are the group sizes of the fingerprints the samples belong
/// to (1 for not-yet-merged users).
[[nodiscard]] SampleStretch sample_stretch(
    const cdr::Sample& a, std::uint32_t na, const cdr::Sample& b,
    std::uint32_t nb) noexcept;

/// Fingerprint stretch effort Delta_ab (eq. 10): for each sample of the
/// longer fingerprint, the minimum-effort sample of the shorter one;
/// averaged over the longer fingerprint.  Symmetric in its arguments.
/// Returns 0 when either fingerprint is empty (nothing left to anonymize).
/// Each sample's match search skips inner samples whose start-time gap
/// alone already costs at least the best match so far; the result is
/// bit-identical to scanning all m_a * m_b sample pairs.  When
/// `sample_pairs` is non-null, the number of sample pairs actually
/// evaluated is added to it.
[[nodiscard]] double fingerprint_stretch(
    const cdr::Fingerprint& a, const cdr::Fingerprint& b,
    std::uint64_t* sample_pairs = nullptr) noexcept;

}  // namespace glove::core

#endif  // GLOVE_CORE_STRETCH_HPP
