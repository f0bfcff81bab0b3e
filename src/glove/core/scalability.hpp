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
// The bounding-box lower bound below is what keeps every exact GLOVE
// decision cheap: the greedy loop seeds its candidate heap with it, and
// nearest_group uses it to skip distant groups.

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

/// A group chosen by nearest_group: its index and exact stretch from the
/// searched fingerprint.
struct NearestGroup {
  std::size_t index = 0;
  double stretch = 0.0;
};

/// The group of `groups` at minimum fingerprint_stretch from `fp`; an
/// exact tie goes to the lower index, so the result is the first minimum
/// a full scan in index order finds.  `group_bounds[g]` must be
/// fingerprint_bounds(groups[g]).  Candidates are visited in ascending
/// (stretch_lower_bound, index) order and the search stops at the first
/// bound above the best stretch, so distant groups are never evaluated
/// exactly.  Throws std::invalid_argument when `groups` is empty or the
/// spans differ in length.  Non-null `evaluations` and `sample_pairs` are
/// incremented by the exact evaluations made and the sample pairs they
/// scanned.
[[nodiscard]] NearestGroup nearest_group(
    const cdr::Fingerprint& fp, std::span<const cdr::Fingerprint> groups,
    std::span<const FingerprintBounds> group_bounds,
    const StretchLimits& limits, std::uint64_t* evaluations = nullptr,
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
