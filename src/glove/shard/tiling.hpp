// Spatial tiling of a fingerprint dataset: every fingerprint is anchored
// at its bounding-box centre and bucketed into the square grid tile
// containing that anchor.  Tiles are emitted in Morton (Z-curve) order of
// their cell coordinates so downstream packing keeps geographic neighbours
// together — the locality idea of W4M's "LC" chunks, on an explicit grid
// the border split can reason about.

#ifndef GLOVE_SHARD_TILING_HPP
#define GLOVE_SHARD_TILING_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/core/scalability.hpp"
#include "glove/geo/geo.hpp"

namespace glove::shard {

/// One occupied tile: its grid cell and the fingerprints anchored in it
/// (dataset indices, ascending).
struct Tile {
  geo::GridCell cell;
  std::vector<std::uint32_t> members;
};

/// The tiling of one dataset.  The per-fingerprint bounds cache is kept
/// because the runner's border test reuses it (and merged-node bounds in
/// the per-shard GLOVE runs derive from the same computation).
struct Tiling {
  double tile_size_m = 0.0;
  /// Occupied tiles in Morton order of their cells (deterministic).
  std::vector<Tile> tiles;
  /// Per-fingerprint bounding geometry (index-aligned with the dataset).
  std::vector<core::FingerprintBounds> bounds;
};

/// Order-preserving Morton code of a grid cell (negative coordinates are
/// bias-mapped so the interleave stays monotone per axis).
[[nodiscard]] std::uint64_t morton_code(geo::GridCell cell) noexcept;

/// The tile of `grid` holding `point`, a point of fingerprint `id`; a point
/// off the int32 grid of cells throws util::DatasetError naming `id`.
[[nodiscard]] geo::GridCell tile_of(const geo::Grid& grid,
                                    geo::PlanarPoint point, std::uint64_t id);

/// Adaptive tile edge from the observed anchor density: targets a
/// fingerprints-per-tile band derived from `max_shard_users` (several
/// tiles per shard, so the planner keeps packing granularity), assuming
/// anchors spread roughly evenly over their bounding extent.  The result
/// is clamped to [1 km, 200 km] and is deterministic in `bounds`; one
/// config thereby scales from citywide to nationwide datasets.  Falls
/// back to the 25 km default when the extent degenerates to a point.
[[nodiscard]] double choose_tile_size(
    std::span<const core::FingerprintBounds> bounds,
    std::size_t max_shard_users);

/// Builds the tiling from precomputed per-fingerprint bounds (the
/// streaming path's first pass), taking ownership of them.  tile_size_m
/// == 0 selects `choose_tile_size`; the size actually used is recorded in
/// Tiling::tile_size_m.  Deterministic single-threaded bookkeeping;
/// requires tile_size_m >= 0 (std::invalid_argument otherwise) and every
/// anchor on the grid (util::DatasetError otherwise, see tile_of).
[[nodiscard]] Tiling build_tiling_from_bounds(
    std::vector<core::FingerprintBounds> bounds, double tile_size_m,
    std::size_t max_shard_users);

/// Builds the tiling of an in-memory dataset: computes bounds in parallel
/// on the shared pool, then delegates to `build_tiling_from_bounds`.
[[nodiscard]] Tiling build_tiling(const cdr::FingerprintDataset& data,
                                  double tile_size_m,
                                  std::size_t max_shard_users = 2'000);

}  // namespace glove::shard

#endif  // GLOVE_SHARD_TILING_HPP
