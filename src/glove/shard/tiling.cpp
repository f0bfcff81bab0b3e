#include "glove/shard/tiling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "glove/util/dataset_error.hpp"

namespace glove::shard {

std::uint64_t morton_code(geo::GridCell cell) noexcept {
  // Bias to unsigned so the per-axis order survives the interleave:
  // INT32_MIN maps to 0, INT32_MAX to UINT32_MAX.
  const auto bias = [](std::int32_t v) {
    return static_cast<std::uint32_t>(v) ^ 0x8000'0000U;
  };
  return geo::morton_interleave(bias(cell.ix), bias(cell.iy));
}

geo::GridCell tile_of(const geo::Grid& grid, geo::PlanarPoint point,
                      std::uint64_t id) {
  try {
    return grid.cell_of(point);
  } catch (const std::out_of_range& e) {
    throw util::DatasetError{"fingerprint " + std::to_string(id) +
                             " lies off the tile grid: " + e.what()};
  }
}

double choose_tile_size(std::span<const core::FingerprintBounds> bounds,
                        std::size_t max_shard_users) {
  constexpr double kFallbackM = 25'000.0;
  constexpr double kMinM = 1'000.0;
  constexpr double kMaxM = 200'000.0;
  if (bounds.empty()) return kFallbackM;
  const std::size_t budget = std::max<std::size_t>(max_shard_users, 1);

  // First guess from mean density: aim for max_shard_users / 8
  // fingerprints per tile, so a shard is built from ~8 tiles and the
  // planner can still balance, but never fewer than 16 per tile (tiny
  // tiles only create border traffic).
  const double target =
      static_cast<double>(std::max<std::size_t>(16, budget / 8));

  std::vector<geo::PlanarPoint> anchors;
  anchors.reserve(bounds.size());
  double min_x = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  for (const core::FingerprintBounds& b : bounds) {
    const geo::PlanarPoint anchor{b.box.x + b.box.dx / 2.0,
                                  b.box.y + b.box.dy / 2.0};
    anchors.push_back(anchor);
    min_x = std::min(min_x, anchor.x_m);
    max_x = std::max(max_x, anchor.x_m);
    min_y = std::min(min_y, anchor.y_m);
    max_y = std::max(max_y, anchor.y_m);
  }
  // A degenerate axis still spans one tile; flooring both at the minimum
  // tile edge keeps the density estimate finite for linear or pointlike
  // deployments (e.g. a highway corridor).
  const double extent_x = std::max(max_x - min_x, kMinM);
  const double extent_y = std::max(max_y - min_y, kMinM);
  const double density =
      static_cast<double>(bounds.size()) / (extent_x * extent_y);
  double tile = std::sqrt(target / density);
  if (!std::isfinite(tile)) return kFallbackM;
  tile = std::clamp(tile, kMinM, kMaxM);

  // Mean density lies about skewed deployments: one downtown tile can
  // hold 50x the average and would become an oversized single-tile shard
  // whose quadratic pair structures dwarf everything else.  Halve the
  // edge until the densest occupied tile fits the shard budget (or the
  // clamp floor is reached) — the histogram is O(n) over in-memory
  // anchors, so refinement costs no extra pass over the data.
  for (int step = 0; step < 16 && tile > kMinM; ++step) {
    const geo::Grid grid{tile};
    std::unordered_map<geo::GridCell, std::size_t> occupancy;
    std::size_t densest = 0;
    for (std::size_t i = 0; i < anchors.size(); ++i) {
      densest = std::max(densest, ++occupancy[tile_of(grid, anchors[i], i)]);
    }
    if (densest <= budget) break;
    tile = std::max(tile / 2.0, kMinM);
  }
  return tile;
}

Tiling build_tiling_from_bounds(std::vector<core::FingerprintBounds> bounds,
                                double tile_size_m,
                                std::size_t max_shard_users) {
  if (tile_size_m < 0.0) {
    throw std::invalid_argument{
        "shard tile size must be positive (or 0 for adaptive)"};
  }
  Tiling tiling;
  tiling.tile_size_m = tile_size_m > 0.0
                           ? tile_size_m
                           : choose_tile_size(bounds, max_shard_users);
  tiling.bounds = std::move(bounds);

  const geo::Grid grid{tiling.tile_size_m};
  std::unordered_map<geo::GridCell, std::size_t> tile_of_cell;
  for (std::size_t i = 0; i < tiling.bounds.size(); ++i) {
    const core::FingerprintBounds& b = tiling.bounds[i];
    const geo::PlanarPoint anchor{b.box.x + b.box.dx / 2.0,
                                  b.box.y + b.box.dy / 2.0};
    const geo::GridCell cell = tile_of(grid, anchor, i);
    const auto [it, inserted] = tile_of_cell.try_emplace(cell,
                                                         tiling.tiles.size());
    if (inserted) tiling.tiles.push_back(Tile{cell, {}});
    tiling.tiles[it->second].members.push_back(static_cast<std::uint32_t>(i));
  }

  std::sort(tiling.tiles.begin(), tiling.tiles.end(),
            [](const Tile& a, const Tile& b) {
              return morton_code(a.cell) < morton_code(b.cell);
            });
  return tiling;
}

Tiling build_tiling(const cdr::FingerprintDataset& data, double tile_size_m,
                    std::size_t max_shard_users) {
  return build_tiling_from_bounds(core::bounds_of(data.fingerprints()),
                                  tile_size_m, max_shard_users);
}

}  // namespace glove::shard
