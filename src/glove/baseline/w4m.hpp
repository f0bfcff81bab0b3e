// Wait-for-Me with Linear spatiotemporal distance and Chunking (W4M-LC),
// reimplemented from Abul, Bonchi, Nanni, "Anonymization of moving objects
// databases by clustering and perturbation" (Information Systems, 2010) —
// the state-of-the-art comparator of the paper's Tab. 2.
//
// W4M models a trajectory as a polyline in (x, y, t) with linear constant-
// speed movement between samples.  It greedily clusters trajectories into
// groups of at least k under a linear spatiotemporal distance (with a trash
// bin for hard-to-cluster outliers and chunking for scalability), then
// aligns every cluster member onto the pivot's timestamps — *creating
// synthetic samples by interpolation* — and translates points so that the
// whole cluster fits a cylinder of diameter delta.
//
// The published uncertainty volume is represented in this library's sample
// format as the cluster-centroid trajectory with spatial extent delta.
// Unlike GLOVE, W4M fabricates samples (violating PPDP truthfulness, P2)
// and perturbs positions; the stats below account for that cost exactly as
// Tab. 2 reports it.

#ifndef GLOVE_BASELINE_W4M_HPP
#define GLOVE_BASELINE_W4M_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/util/dataset_error.hpp"

namespace glove::baseline {

// W4M-LC runs at the one setting of the paper's comparison (Tab. 2,
// Sec. 7.2); only the anonymity level k is the run's.

/// Diameter of the uncertainty cylinder, metres (delta = 2 km).
inline constexpr double kW4MDeltaM = 2'000.0;
/// Fraction of the trajectories the trash bin may discard as outliers.
inline constexpr double kW4MTrashFraction = 0.10;
/// Chunk size of the LC variant: clustering runs within chunks of this
/// many trajectories, bounding the O(n^2) distance computations.
inline constexpr std::size_t kW4MChunkSize = 512;

/// Cost accounting matching the rows of Tab. 2.
struct W4MStats {
  std::uint64_t input_users = 0;
  std::uint64_t input_samples = 0;
  /// Users discarded by the trash bin ("Discarded fingerprints").
  std::uint64_t discarded_fingerprints = 0;
  /// Synthetic member-samples fabricated by time alignment ("Created").
  std::uint64_t created_samples = 0;
  /// Original samples with no published counterpart ("Deleted").
  std::uint64_t deleted_samples = 0;
  /// Mean displacement between a member's true (interpolated) position and
  /// the published cluster position at each published timestamp, metres.
  double mean_position_error_m = 0.0;
  /// Mean distance between each published member-sample's timestamp and
  /// the member's nearest original sample, minutes.
  double mean_time_error_min = 0.0;
  /// Per published member-sample error observations (distribution plots).
  std::vector<double> position_errors_m;
  std::vector<double> time_errors_min;
  std::uint64_t clusters = 0;
};

/// Result: the published dataset (one fingerprint per cluster, carrying all
/// member ids, samples = centroid points with spatial extent delta) plus
/// the cost statistics.
struct W4MResult {
  cdr::FingerprintDataset anonymized;
  W4MStats stats;
};

/// Throws std::invalid_argument unless 2 <= k <= kW4MChunkSize: a chunk
/// must hold a whole cluster.
void check_config(std::uint32_t k);

/// Runs W4M-LC at anonymity level k.  Requires a k that passes
/// check_config (std::invalid_argument otherwise) and data.size() >= k
/// (util::DatasetError otherwise).  Deterministic.
[[nodiscard]] W4MResult anonymize_w4m(const cdr::FingerprintDataset& data,
                                      std::uint32_t k);

/// Linear spatiotemporal distance between two trajectories (exposed for
/// tests): time-average Euclidean distance between the two moving points
/// over their co-existence interval, plus a proportional penalty for the
/// non-overlapping fraction of their spans.  Returns +inf for trajectories
/// that never co-exist.
[[nodiscard]] double linear_st_distance(const cdr::Fingerprint& a,
                                        const cdr::Fingerprint& b);

}  // namespace glove::baseline

#endif  // GLOVE_BASELINE_W4M_HPP
