// plan_shards packs Morton-ordered tiles into load-balanced shards, and
// split_borders decides which fingerprints each shard anonymizes itself
// and which it defers to the cross-shard reconciliation.  Each takes the
// knobs it reads (k, the shard budget, the halo), not a whole config.
//
// Invariants of a plan (for any dataset with >= k fingerprints):
//   * every fingerprint belongs to exactly one shard;
//   * every shard holds at least k fingerprints (so per-shard GLOVE can
//     run), built from whole tiles so the border test stays tile-local;
//   * shards respect the max_shard_users budget except when forced over it
//     by the >= k floor or by a single oversized tile.
//
// Both decisions depend only on the per-fingerprint bounding geometry,
// never on the samples themselves, so the streaming pipeline plans the
// whole run from its first (bounds-only) pass before any fingerprint is
// materialized.

#ifndef GLOVE_SHARD_PLANNER_HPP
#define GLOVE_SHARD_PLANNER_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "glove/shard/tiling.hpp"

namespace glove::shard {

/// One planned shard: the fingerprints it anonymizes (dataset indices, in
/// tile-Morton-then-index order) and the tiles it owns.
struct PlannedShard {
  std::vector<std::uint32_t> members;
  std::vector<geo::GridCell> cells;
};

struct ShardPlan {
  std::vector<PlannedShard> shards;
  /// Owning shard of every occupied cell (the border test of
  /// split_borders).
  std::unordered_map<geo::GridCell, std::size_t> shard_of_cell;
  std::size_t tiles = 0;
};

/// Packs the tiles of `tiling`, in order, into shards of at most
/// `max_shard_users` fingerprints and at least k.  Deterministic in its
/// inputs.  Requires the tiling to hold at least k fingerprints
/// (util::DatasetError otherwise).
[[nodiscard]] ShardPlan plan_shards(const Tiling& tiling, std::uint32_t k,
                                    std::size_t max_shard_users);

/// The serial kept/deferred split of a plan: per shard, the fingerprints
/// it anonymizes itself and the ones handed to reconciliation (border
/// fingerprints — bounding box, inflated by halo_m, touching a tile
/// owned by another shard, or overlapping more tiles than the split
/// enumerates, however wide the halo — or the whole shard when its kept
/// set would fall below k).  A single-shard plan has no borders.
/// Deterministic for a given tiling and plan, independent of workers.
struct BorderSplit {
  /// Per shard: dataset indices anonymized inside the shard, in planned
  /// member order.
  std::vector<std::vector<std::uint32_t>> kept;
  /// Per shard: dataset indices deferred to reconciliation (member order;
  /// sorted ascending when a collapsed shard defers everything).
  std::vector<std::vector<std::uint32_t>> deferred;
};

[[nodiscard]] BorderSplit split_borders(const Tiling& tiling,
                                        const ShardPlan& plan, double halo_m,
                                        std::uint32_t k);

}  // namespace glove::shard

#endif  // GLOVE_SHARD_PLANNER_HPP
