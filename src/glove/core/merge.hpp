// Fingerprint merging — the heart of GLOVE's specialized generalization
// (Sec. 6.2): a two-stage matching of samples between two fingerprints,
// per-sample spatiotemporal union (eq. 12-13), temporal-overlap reshaping
// (Fig. 6b) and optional suppression of over-stretched samples (Sec. 7.1).

#ifndef GLOVE_CORE_MERGE_HPP
#define GLOVE_CORE_MERGE_HPP

#include <cstdint>
#include <optional>

#include "glove/cdr/fingerprint.hpp"

namespace glove::core {

/// Suppression thresholds (Sec. 7.1): merged samples whose spatial extent
/// or duration exceeds these are discarded rather than published.  The
/// paper's Tab. 2 setting is {15 km, 6 h}; Fig. 9 sweeps both knobs.
struct SuppressionThresholds {
  double max_spatial_extent_m = 15'000.0;
  double max_temporal_extent_min = 360.0;
};

/// Counters accumulated by merge operations.
struct MergeStats {
  /// Original samples removed by suppression (contributor-weighted).
  std::uint64_t suppressed_original_samples = 0;
  /// Published (merged) samples removed by suppression.
  std::uint64_t suppressed_merged_samples = 0;
  /// Sample unions performed (eq. 12-13 evaluations).
  std::uint64_t sample_unions = 0;
};

/// Spatiotemporal union of two samples (eq. 12-13): the smallest sample
/// covering both rectangles and both time intervals.  Contributor counts
/// add up.
[[nodiscard]] cdr::Sample merge_samples(const cdr::Sample& a,
                                        const cdr::Sample& b) noexcept;

/// Options controlling `merge_fingerprints`, the first layer of the run
/// configuration: core::GloveConfig extends them with k and the leftover
/// policy.  Samples are matched by the fixed stretch effort of eq. 1-3
/// (stretch.hpp), which no option changes.
struct MergeOptions {
  /// Resolve temporal overlaps after merging (Fig. 6b).  GLOVE's default.
  bool reshape = true;
  /// When set, drop merged samples exceeding the thresholds (Sec. 7.1);
  /// disabled when empty.
  std::optional<SuppressionThresholds> suppression;
};

/// Merges two fingerprints into one generalized fingerprint hiding all
/// members of both (Sec. 6.2):
///
///   stage 1 — every sample of the longer fingerprint is matched to the
///             minimum-stretch sample of the shorter one and unioned with
///             it (samples sharing a target collapse together);
///   stage 2 — shorter-fingerprint samples left unmatched are unioned with
///             their minimum-stretch sample among the stage-1 results;
///   then temporal overlaps are reshaped and suppression is applied.
///
/// The result carries the union of both member lists.  `stats`, when
/// non-null, accumulates suppression counters.
[[nodiscard]] cdr::Fingerprint merge_fingerprints(const cdr::Fingerprint& a,
                                                  const cdr::Fingerprint& b,
                                                  const MergeOptions& options,
                                                  MergeStats* stats = nullptr);

/// Reshaping alone (Fig. 6b): replaces every maximal run of temporally
/// overlapping samples with a single sample covering the union of their
/// intervals and rectangles.  Exposed for tests and ablation benches.
[[nodiscard]] std::vector<cdr::Sample> reshape_samples(
    std::vector<cdr::Sample> samples);

/// Suppression alone: removes samples exceeding the thresholds, counting
/// the discarded original samples into `stats` when non-null.
[[nodiscard]] std::vector<cdr::Sample> suppress_samples(
    std::vector<cdr::Sample> samples, const SuppressionThresholds& thresholds,
    MergeStats* stats = nullptr);

}  // namespace glove::core

#endif  // GLOVE_CORE_MERGE_HPP
