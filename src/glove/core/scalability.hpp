// Scalability variants of the core algorithms.  The paper's full-scale
// runs (82k-320k users) took ~60 GPU-hours (Sec. 6.3); these variants
// bound the quadratic costs for large datasets:
//
//   * k_gaps_pruned — exact k-gap with bounding-box lower-bound pruning:
//     a pair whose fingerprint bounding boxes are far apart cannot have a
//     small stretch effort, so the full O(m_a * m_b) evaluation is skipped
//     once k-1 better candidates are known.  Exact (same output as
//     core::k_gaps), faster on geographically spread datasets.
//
//   * anonymize_chunked — GLOVE over locality-sorted chunks (the same
//     scaling idea as W4M's "LC" variant): fingerprints are ordered by a
//     space-filling curve over their bounding-box centres and partitioned
//     into chunks anonymized independently.  Quadratic cost drops to
//     O(chunks * chunk_size^2); accuracy degrades only mildly because the
//     curve keeps co-located users (the natural merge partners) together.
//
// Two lower bounds keep every exact GLOVE decision cheap, and the greedy
// loop and nearest_group pass each candidate through them as a three-stage
// cascade, the filter-then-refine order of exact time-series search:
//
//   1. box: stretch_lower_bound, from each fingerprint's whole bounding box
//      and time interval (FingerprintBounds).  O(1) per pair, so it seeds
//      all |M|^2/2 candidates, but a multi-day fingerprint's interval spans
//      the whole trace and carries no time information.
//   2. slot: slot_lower_bound, from each fingerprint's SlotSummary — the
//      rectangle, interval and count of the samples starting in each fixed
//      kSlotMinutes slot.  Eq. 10 averages per-sample minima, so for each
//      slot of the fingerprint eq. 10 iterates over, the cheapest box-gap
//      term to any slot of the other, weighted by the slot's count, bounds
//      that slot's share.  O(S_a * S_b) per pair, far below the exact
//      O(m_a * m_b) and far tighter than the box.
//   3. exact: fingerprint_stretch (eq. 10).
//
// A candidate moves to the next stage only when its current bound is the
// least key left, so most pairs stop at the box or the slot stage.

#ifndef GLOVE_CORE_SCALABILITY_HPP
#define GLOVE_CORE_SCALABILITY_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "glove/core/glove.hpp"
#include "glove/core/kgap.hpp"

namespace glove::core {

/// Exact k-gap with bounding-box pruning.  Identical results to
/// core::k_gaps (same ties broken the same way); the `pruned_pairs`
/// output, when non-null, receives the number of pair evaluations skipped.
[[nodiscard]] std::vector<KGapEntry> k_gaps_pruned(
    const cdr::FingerprintDataset& data, std::uint32_t k,
    const StretchLimits& limits = {}, std::uint64_t* pruned_pairs = nullptr);

/// A sound lower bound on fingerprint_stretch(a, b): both fingerprints'
/// bounding geometries must at least bridge the gap between them for any
/// sample pair to merge.  Sound for samples with finite, non-negative
/// extents, which the dataset decoders enforce (cdr::check_sample).
struct FingerprintBounds {
  cdr::SpatialExtent box;        ///< spatial bounding rectangle
  cdr::TemporalExtent interval;  ///< temporal bounding interval
  /// No samples (e.g. a group suppression emptied): its stretch to any
  /// fingerprint is 0, so its bound is too.
  bool empty = false;
};

[[nodiscard]] FingerprintBounds fingerprint_bounds(const cdr::Fingerprint& fp);

/// fingerprint_bounds of every fingerprint, computed in parallel.
[[nodiscard]] std::vector<FingerprintBounds> bounds_of(
    std::span<const cdr::Fingerprint> fingerprints);

[[nodiscard]] double stretch_lower_bound(const FingerprintBounds& a,
                                         const FingerprintBounds& b,
                                         const StretchLimits& limits);

/// Width of the fixed time slots of a SlotSummary, in minutes.  One
/// constant, chosen by measurement: narrower slots give a tighter bound
/// but more slot pairs per bound.  On perfbench's city_halo_k2 (4 vCPUs),
/// 60 and 360 minutes cost more CPU time than 120 and 240, and over ten
/// alternating pairs 240 used 9% less CPU time than 120 (lower in 9 of
/// 10, by more than 120's interquartile range) and 1% less peak RSS (10
/// of 10); wall time and serve_replay_k5 did not separate the two.
inline constexpr double kSlotMinutes = 240.0;

/// One slot of a SlotSummary: the samples whose start time t falls in
/// [n, n + 1) * kSlotMinutes for some integer n.  The lower ends are the
/// least sample edges, and the upper ends the largest *computed* x_end(),
/// y_end() and t_end() of the slot's samples — the values eq. 4 and eq. 7
/// compare — so every sample edge lies inside [lo, hi] exactly and the
/// gaps need none of FingerprintBounds' upper-end padding (which exists
/// because a box stores lo + a rounded length).  A sample whose interval
/// runs past the slot's end widens t_hi, never the slot.
struct TimeSlot {
  double x_lo = 0.0;
  double x_hi = 0.0;
  double y_lo = 0.0;
  double y_hi = 0.0;
  double t_lo = 0.0;
  double t_hi = 0.0;
  std::size_t count = 0;  ///< samples starting in the slot
};

/// A fingerprint's samples grouped by start-time slot: one TimeSlot per
/// slot that holds sample starts, in ascending time.
struct SlotSummary {
  std::vector<TimeSlot> slots;
  std::size_t samples = 0;  ///< the fingerprint's sample count
};

[[nodiscard]] SlotSummary slot_summary(const cdr::Fingerprint& fp);

/// A sound lower bound on fingerprint_stretch(a, b) from the two slot
/// summaries, at least as tight as stretch_lower_bound in exact
/// arithmetic.  Following eq. 10, it takes the fingerprint with more
/// samples, sums over its slots the slot's count times the least box-gap
/// term (the stretch_lower_bound formula) to any slot of the other, and
/// divides by its sample count; at equal sample counts it averages both
/// directions.  The result is scaled by stretch_lower_bound's rounding
/// margin, so it stays at or below the *computed* stretch, and it is 0
/// when either side has no samples.
[[nodiscard]] double slot_lower_bound(
    const SlotSummary& a, const SlotSummary& b, const StretchLimits& limits);

/// What the exact GLOVE decisions know of a node before evaluating its
/// stretch: the box and the slot stage of the cascade.
struct NodeBounds {
  FingerprintBounds box;
  SlotSummary slots;
};

[[nodiscard]] NodeBounds node_bounds(const cdr::Fingerprint& fp);

/// node_bounds of every fingerprint, computed in parallel.
[[nodiscard]] std::vector<NodeBounds> node_bounds_of(
    std::span<const cdr::Fingerprint> fingerprints);

/// A group chosen by nearest_group: its index and exact stretch from the
/// searched fingerprint.
struct NearestGroup {
  std::size_t index = 0;
  double stretch = 0.0;
};

/// The group of `groups` at minimum fingerprint_stretch from `fp`; an
/// exact tie goes to the lower index, so the result is the first minimum
/// a full scan in index order finds.  `group_bounds[g]` must be
/// node_bounds(groups[g]).  Candidates are visited in ascending bound
/// order through the box -> slot -> exact cascade: a box bound that comes
/// first is replaced by the larger of it and the slot bound, and a slot
/// bound that comes first is evaluated exactly.  The search stops at the
/// first bound above the best stretch, so distant groups are never
/// evaluated exactly.  Throws std::invalid_argument when `groups` is empty
/// or the spans differ in length.  Non-null `evaluations` and
/// `sample_pairs` are incremented by the exact evaluations made and the
/// sample pairs they scanned.
[[nodiscard]] NearestGroup nearest_group(
    const cdr::Fingerprint& fp, std::span<const cdr::Fingerprint> groups,
    std::span<const NodeBounds> group_bounds, const StretchLimits& limits,
    std::uint64_t* evaluations = nullptr,
    std::uint64_t* sample_pairs = nullptr);

/// The locality-sort key: the Morton interleave of the bounding-box centre
/// quantized to 1 km.  Also stored in the glovebin block index.
[[nodiscard]] std::uint64_t locality_sort_key(
    const FingerprintBounds& bounds) noexcept;

/// Cuts positions 0..bounds.size()-1 into locality chunks: sorted by
/// (locality_sort_key(bounds[p]), p) and cut into runs of `chunk_size`,
/// the last run extended to the end rather than leave fewer than k
/// behind.  The one chunking of anonymize_chunked and of the sharded
/// run's reconcile plan.  Throws std::invalid_argument unless
/// chunk_size >= max(k, 1) and bounds.size() < 2^32.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> locality_chunks(
    std::span<const FingerprintBounds> bounds, std::size_t chunk_size,
    std::uint32_t k);

/// Chunked GLOVE configuration.
struct ChunkedConfig {
  GloveConfig glove;
  /// Users per chunk; each chunk is anonymized independently.  Must be
  /// >= glove.k.
  std::size_t chunk_size = 2'000;
};

/// Runs GLOVE independently on locality-sorted chunks and concatenates the
/// results.  Every output group still hides >= k users (chunk sizes are
/// adjusted so no chunk is smaller than k).  Stats are aggregated.
/// Progress units are input fingerprints; cancellation is polled between
/// chunks and inside each chunk's greedy loop.
[[nodiscard]] GloveResult anonymize_chunked(const cdr::FingerprintDataset& data,
                                            const ChunkedConfig& config,
                                            const util::RunHooks& hooks = {});

}  // namespace glove::core

#endif  // GLOVE_CORE_SCALABILITY_HPP
