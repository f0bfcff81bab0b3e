// Spatial tiling: Morton ordering, anchor-to-cell assignment, and the
// per-fingerprint caches the planner and runner build on.

#include "glove/shard/tiling.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "glove/util/dataset_error.hpp"

namespace glove::shard {
namespace {

cdr::FingerprintDataset three_cluster_dataset() {
  // Three well-separated clusters of two users each; 1 km tiles put each
  // cluster in its own tile.
  std::vector<cdr::Fingerprint> fps;
  for (int c = 0; c < 3; ++c) {
    const double base = 10'000.0 * c;
    for (cdr::UserId u = 0; u < 2; ++u) {
      fps.emplace_back(static_cast<cdr::UserId>(2 * c) + u,
                       std::vector<cdr::Sample>{
                           test::cell(base, base, 10.0 + u),
                           test::cell(base + 200.0, base, 50.0 + u)});
    }
  }
  return cdr::FingerprintDataset{std::move(fps), "three-cluster"};
}

TEST(Tiling, MortonCodeIsMonotonePerAxis) {
  for (const std::int32_t base : {-5, 0, 7}) {
    EXPECT_LT(morton_code(geo::GridCell{base, 0}),
              morton_code(geo::GridCell{base + 1, 0}));
    EXPECT_LT(morton_code(geo::GridCell{0, base}),
              morton_code(geo::GridCell{0, base + 1}));
  }
  // Negative cells order before the origin on both axes.
  EXPECT_LT(morton_code(geo::GridCell{-1, -1}),
            morton_code(geo::GridCell{0, 0}));
}

TEST(Tiling, BucketsFingerprintsByBoundingBoxCentre) {
  const cdr::FingerprintDataset data = three_cluster_dataset();
  const Tiling tiling = build_tiling(data, 1'000.0);

  ASSERT_EQ(tiling.tiles.size(), 3u);
  ASSERT_EQ(tiling.bounds.size(), data.size());

  // Each tile holds exactly the cluster pair, in index order, and every
  // member's bounding-box centre falls inside its tile's cell.
  const geo::Grid grid{tiling.tile_size_m};
  std::size_t seen = 0;
  for (const Tile& tile : tiling.tiles) {
    ASSERT_EQ(tile.members.size(), 2u);
    EXPECT_EQ(tile.members[0] + 1, tile.members[1]);
    seen += tile.members.size();
    for (const std::uint32_t id : tile.members) {
      const core::FingerprintBounds& b = tiling.bounds[id];
      const geo::PlanarPoint anchor{b.box.x + b.box.dx / 2.0,
                                    b.box.y + b.box.dy / 2.0};
      EXPECT_EQ(grid.cell_of(anchor), tile.cell);
    }
  }
  EXPECT_EQ(seen, data.size());

  // Tiles come out in Morton order.
  for (std::size_t t = 1; t < tiling.tiles.size(); ++t) {
    EXPECT_LT(morton_code(tiling.tiles[t - 1].cell),
              morton_code(tiling.tiles[t].cell));
  }
}

TEST(Tiling, BoundsCoverEverySample) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(20);
  const Tiling tiling = build_tiling(data, 5'000.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const core::FingerprintBounds& b = tiling.bounds[i];
    for (const cdr::Sample& s : data[i].samples()) {
      EXPECT_GE(s.sigma.x, b.box.x);
      EXPECT_LE(s.sigma.x_end(), b.box.x_end() + 1e-9);
      EXPECT_GE(s.tau.t, b.interval.t);
      EXPECT_LE(s.tau.t_end(), b.interval.t_end() + 1e-9);
    }
  }
}

TEST(Tiling, RejectsNegativeTileSizeAndResolvesZeroAdaptively) {
  const cdr::FingerprintDataset data = test::paired_dataset();
  EXPECT_THROW((void)build_tiling(data, -5.0), std::invalid_argument);

  // 0 = adaptive: the tiling records the density-derived edge it used.
  const Tiling adaptive = build_tiling(data, 0.0, /*max_shard_users=*/16);
  EXPECT_GT(adaptive.tile_size_m, 0.0);
  std::size_t members = 0;
  for (const Tile& tile : adaptive.tiles) members += tile.members.size();
  EXPECT_EQ(members, data.size());
}

TEST(Tiling, RefusesAnAnchorOffTheGridAsADatasetError) {
  // 1e300 m is finite, but no int32 tile index reaches it, not even of a
  // 1 km tile: a dataset fault naming the fingerprint, at a fixed, an
  // adaptive and a tiny tile size (the point at the origin lies on all
  // three grids).
  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(
      0u, std::vector<cdr::Sample>{test::box(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)});
  fps.emplace_back(1u, std::vector<cdr::Sample>{test::cell(1e300, 0.0, 0.0)});
  const cdr::FingerprintDataset data{std::move(fps), "off-grid"};
  for (const double tile_m : {1'000.0, 0.0, 1e-9}) {
    try {
      (void)build_tiling(data, tile_m);
      ADD_FAILURE() << "expected util::DatasetError at tile " << tile_m;
    } catch (const util::DatasetError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("fingerprint 1 lies off the tile grid"),
                std::string::npos)
          << message;
    }
  }
}

TEST(Tiling, AdaptiveTileSizeIsDeterministicAndTracksDensity) {
  const cdr::FingerprintDataset sparse = test::small_synth_dataset(30);
  const cdr::FingerprintDataset dense = test::small_synth_dataset(120);
  const Tiling a = build_tiling(sparse, 0.0, 64);
  const Tiling b = build_tiling(sparse, 0.0, 64);
  EXPECT_DOUBLE_EQ(a.tile_size_m, b.tile_size_m);
  // Same area, 4x the fingerprints: tiles shrink (or hit the clamp).
  const Tiling c = build_tiling(dense, 0.0, 64);
  EXPECT_LE(c.tile_size_m, a.tile_size_m);
  EXPECT_GE(c.tile_size_m, 1'000.0);
  EXPECT_LE(a.tile_size_m, 200'000.0);
}

}  // namespace
}  // namespace glove::shard
