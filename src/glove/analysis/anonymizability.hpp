// The Sec. 5 anonymizability analysis: disaggregates each user's k-gap into
// per-sample stretch efforts, separates spatial and temporal components
// (the sets S_a^k and T_a^k of Sec. 5.3), and derives the Tail Weight Index
// and temporal-share statistics behind Fig. 5.

#ifndef GLOVE_ANALYSIS_ANONYMIZABILITY_HPP
#define GLOVE_ANALYSIS_ANONYMIZABILITY_HPP

#include <cstdint>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/core/kgap.hpp"
#include "glove/core/stretch.hpp"

namespace glove::analysis {

/// The disaggregated stretch efforts of one user towards its k-1 nearest
/// fingerprints: one entry per (sample of the longer fingerprint, nearest
/// neighbour) matched pair, as produced by eq. 10.
struct UserStretchProfile {
  std::vector<double> total;     ///< delta values (eq. 1)
  std::vector<double> spatial;   ///< w_sigma * phi_sigma components
  std::vector<double> temporal;  ///< w_tau * phi_tau components
};

/// Computes the stretch profile of every user given the k-gap neighbour
/// sets (from core::k_gaps).  Parallel over users; deterministic.
[[nodiscard]] std::vector<UserStretchProfile> stretch_profiles(
    const cdr::FingerprintDataset& data,
    const std::vector<core::KGapEntry>& kgaps);

/// The Fig. 5 aggregates across users.
struct TailAnalysis {
  /// Per-user TWI of the delta / spatial / temporal distributions (Fig. 5a).
  std::vector<double> twi_total;
  std::vector<double> twi_spatial;
  std::vector<double> twi_temporal;
  /// Per-user temporal share of the total stretch effort,
  /// sum(T_a^k) / (sum(S_a^k) + sum(T_a^k)) in [0, 1] (Fig. 5b).
  std::vector<double> temporal_share;
};

[[nodiscard]] TailAnalysis analyze_tails(
    const std::vector<UserStretchProfile>& profiles);

}  // namespace glove::analysis

#endif  // GLOVE_ANALYSIS_ANONYMIZABILITY_HPP
