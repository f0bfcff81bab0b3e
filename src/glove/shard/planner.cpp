#include "glove/shard/planner.hpp"

#include <algorithm>
#include <cmath>

#include "glove/core/scalability.hpp"
#include "glove/util/dataset_error.hpp"

namespace glove::shard {

namespace {

/// Above this many overlapped tiles the fingerprint is a wide wanderer
/// whose geometry spans a large part of the map; defer it outright rather
/// than enumerating cells.
constexpr double kMaxOverlappedCells = 4096;

/// True when the bounds of fingerprint `id`, inflated by `halo_m`, touch
/// a tile owned by a shard other than `home_shard` — the deferral test of
/// split_borders.
bool crosses_shard_border(const core::FingerprintBounds& bounds,
                          std::uint32_t id, std::size_t home_shard,
                          const ShardPlan& plan, double tile_size_m,
                          double halo_m) {
  const geo::Grid grid{tile_size_m};
  const geo::PlanarPoint low{bounds.box.x - halo_m, bounds.box.y - halo_m};
  const geo::PlanarPoint high{bounds.box.x_end() + halo_m,
                              bounds.box.y_end() + halo_m};
  // Count the overlapped tiles in doubles, as the grid indexes them, before
  // asking for the corner cells: a halo wider than the int32 grid makes a
  // wanderer, not a fingerprint off the grid.
  const auto span = [tile_size_m](double from, double to) {
    return std::floor(to / tile_size_m) - std::floor(from / tile_size_m) + 1;
  };
  if (span(low.x_m, high.x_m) * span(low.y_m, high.y_m) >
      kMaxOverlappedCells) {
    return true;
  }
  const geo::GridCell lo = tile_of(grid, low, id);
  const geo::GridCell hi = tile_of(grid, high, id);
  for (std::int32_t ix = lo.ix; ix <= hi.ix; ++ix) {
    for (std::int32_t iy = lo.iy; iy <= hi.iy; ++iy) {
      const auto it = plan.shard_of_cell.find(geo::GridCell{ix, iy});
      // Unoccupied tiles hold no merge partners and are skipped.
      if (it != plan.shard_of_cell.end() && it->second != home_shard) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

ShardPlan plan_shards(const Tiling& tiling, std::uint32_t k,
                      std::size_t max_shard_users) {
  std::size_t total = 0;
  for (const Tile& tile : tiling.tiles) total += tile.members.size();
  util::check_dataset_size(total, k);

  ShardPlan plan;
  plan.tiles = tiling.tiles.size();

  // Greedy packing over the Morton order: close the current shard when it
  // already satisfies the >= k floor and the next tile would break the
  // budget.  A tile alone larger than the budget becomes its own shard.
  PlannedShard current;
  const auto flush = [&] {
    if (current.members.empty()) return;
    plan.shards.push_back(std::move(current));
    current = PlannedShard{};
  };
  for (const Tile& tile : tiling.tiles) {
    if (!current.members.empty() && current.members.size() >= k &&
        current.members.size() + tile.members.size() > max_shard_users) {
      flush();
    }
    current.cells.push_back(tile.cell);
    current.members.insert(current.members.end(), tile.members.begin(),
                           tile.members.end());
  }
  flush();

  // The tail shard may have been left under the >= k floor (the budget
  // closed its predecessor first); fold it into that predecessor.
  if (plan.shards.size() >= 2 && plan.shards.back().members.size() < k) {
    PlannedShard tail = std::move(plan.shards.back());
    plan.shards.pop_back();
    PlannedShard& previous = plan.shards.back();
    previous.cells.insert(previous.cells.end(), tail.cells.begin(),
                          tail.cells.end());
    previous.members.insert(previous.members.end(), tail.members.begin(),
                            tail.members.end());
  }

  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    for (const geo::GridCell cell : plan.shards[s].cells) {
      plan.shard_of_cell.emplace(cell, s);
    }
  }
  return plan;
}

BorderSplit split_borders(const Tiling& tiling, const ShardPlan& plan,
                          double halo_m, std::uint32_t k) {
  const std::size_t shard_count = plan.shards.size();
  BorderSplit split;
  split.kept.resize(shard_count);
  split.deferred.resize(shard_count);

  // A single shard has no borders; a shard whose kept set dropped below k
  // cannot run GLOVE and defers everything.
  const bool bordered = shard_count > 1;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const PlannedShard& shard = plan.shards[s];
    std::vector<std::uint32_t>& kept = split.kept[s];
    std::vector<std::uint32_t>& deferred = split.deferred[s];
    kept.reserve(shard.members.size());
    for (const std::uint32_t id : shard.members) {
      if (bordered && crosses_shard_border(tiling.bounds[id], id, s, plan,
                                           tiling.tile_size_m, halo_m)) {
        deferred.push_back(id);
      } else {
        kept.push_back(id);
      }
    }
    if (kept.size() < k) {
      deferred.insert(deferred.end(), kept.begin(), kept.end());
      std::sort(deferred.begin(), deferred.end());
      kept.clear();
    }
  }
  return split;
}

}  // namespace glove::shard
