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

#ifndef GLOVE_CORE_SCALABILITY_HPP
#define GLOVE_CORE_SCALABILITY_HPP

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
/// sample pair to merge.  Exposed for tests.
struct FingerprintBounds {
  cdr::SpatialExtent box;        ///< spatial bounding rectangle
  cdr::TemporalExtent interval;  ///< temporal bounding interval
};

[[nodiscard]] FingerprintBounds fingerprint_bounds(const cdr::Fingerprint& fp);

[[nodiscard]] double stretch_lower_bound(const FingerprintBounds& a,
                                         const FingerprintBounds& b,
                                         const StretchLimits& limits);

/// The locality-sort key of `anonymize_chunked`: the Morton interleave of
/// the bounding-box centre quantized to 1 km.  Exposed so that planners
/// working from precomputed bounds (the sharded backend's streaming
/// reconciliation) partition into exactly the chunks anonymize_chunked
/// would build — byte-identical chunk membership is what keeps the two
/// paths' outputs equal.
[[nodiscard]] std::uint64_t locality_sort_key(
    const FingerprintBounds& bounds) noexcept;

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

/// Exact GLOVE with a bounding-box-pruned initialization (implemented in
/// glove.cpp beside the shared greedy loop): the initial candidate heap is
/// seeded with stretch_lower_bound values and entries refine to the true
/// stretch effort lazily when they surface, so geographically far pairs
/// are never evaluated exactly.  Byte-identical output to anonymize();
/// only GloveStats::stretch_evaluations (and timings) differ.
[[nodiscard]] GloveResult anonymize_pruned(const cdr::FingerprintDataset& data,
                                           const GloveConfig& config,
                                           const util::RunHooks& hooks = {});

}  // namespace glove::core

#endif  // GLOVE_CORE_SCALABILITY_HPP
