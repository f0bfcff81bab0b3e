// plan_shards: every fingerprint lands in exactly one shard, shards
// respect the >= k floor and the max_shard_users budget (except where the
// floor or an oversized tile forces them over), and the cell-to-shard map
// covers every occupied tile.

#include "glove/shard/planner.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/fixtures.hpp"
#include "glove/shard/tiling.hpp"

namespace glove::shard {
namespace {

void expect_partition(const ShardPlan& plan, std::size_t dataset_size) {
  std::vector<bool> seen(dataset_size, false);
  for (const PlannedShard& shard : plan.shards) {
    for (const std::uint32_t id : shard.members) {
      ASSERT_LT(id, dataset_size);
      EXPECT_FALSE(seen[id]) << "fingerprint " << id << " in two shards";
      seen[id] = true;
    }
  }
  for (std::size_t i = 0; i < dataset_size; ++i) {
    EXPECT_TRUE(seen[i]) << "fingerprint " << i << " unassigned";
  }
}

TEST(ShardPlanner, PartitionsEveryFingerprintOnce) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  const std::uint32_t k = 2;
  const std::size_t max_shard_users = 12;
  const Tiling tiling = build_tiling(data, 10'000.0);
  const ShardPlan plan = plan_shards(tiling, k, max_shard_users);

  EXPECT_GE(plan.shards.size(), 2u);
  expect_partition(plan, data.size());
  for (const PlannedShard& shard : plan.shards) {
    EXPECT_GE(shard.members.size(), k);
  }
}

TEST(ShardPlanner, CellMapCoversEveryTile) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(40);
  const Tiling tiling = build_tiling(data, 10'000.0);
  const ShardPlan plan = plan_shards(tiling, /*k=*/2, /*max_shard_users=*/10);

  EXPECT_EQ(plan.tiles, tiling.tiles.size());
  EXPECT_EQ(plan.shard_of_cell.size(), tiling.tiles.size());
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    for (const geo::GridCell cell : plan.shards[s].cells) {
      const auto it = plan.shard_of_cell.find(cell);
      ASSERT_NE(it, plan.shard_of_cell.end());
      EXPECT_EQ(it->second, s);
    }
  }
}

TEST(ShardPlanner, RespectsBudgetUpToTheFloor) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  const std::size_t max_shard_users = 15;
  const Tiling tiling = build_tiling(data, 5'000.0);
  const ShardPlan plan = plan_shards(tiling, /*k=*/2, max_shard_users);

  // A shard may exceed the budget only by one tile (closing happens when
  // the *next* tile would overflow) or through the tail fold; it can
  // never reach twice the budget unless a single tile is oversized.
  std::size_t biggest_tile = 0;
  for (const Tile& tile : tiling.tiles) {
    biggest_tile = std::max(biggest_tile, tile.members.size());
  }
  for (const PlannedShard& shard : plan.shards) {
    EXPECT_LE(shard.members.size(), 2 * max_shard_users + biggest_tile);
  }
}

TEST(ShardPlanner, OversizedTileBecomesItsOwnShard) {
  // Everyone in one 100 m cell: a single tile far over budget must stay
  // whole (one shard), not be split across shards.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 30; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            test::cell(50.0, 50.0, 10.0 + u)});
  }
  const cdr::FingerprintDataset data{std::move(fps), "dense"};
  const Tiling tiling = build_tiling(data, 25'000.0);
  const ShardPlan plan = plan_shards(tiling, /*k=*/2, /*max_shard_users=*/8);

  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].members.size(), 30u);
}

TEST(ShardPlanner, TailBelowKFoldsIntoPreviousShard) {
  // Two far-apart tiles: 6 users and 1 user, k = 2, budget 6.  The lone
  // tail cannot form a shard and folds back.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 6; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            test::cell(0.0, 0.0, 10.0 + u)});
  }
  fps.emplace_back(6u, std::vector<cdr::Sample>{
                           test::cell(200'000.0, 0.0, 10.0)});
  const cdr::FingerprintDataset data{std::move(fps), "tail"};
  const Tiling tiling = build_tiling(data, 25'000.0);
  const ShardPlan plan = plan_shards(tiling, /*k=*/2, /*max_shard_users=*/6);

  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].members.size(), 7u);
  EXPECT_EQ(plan.shards[0].cells.size(), 2u);
}

TEST(ShardPlanner, RejectsDatasetSmallerThanK) {
  const cdr::FingerprintDataset data = test::paired_dataset();  // 7 users
  const Tiling tiling = build_tiling(data, 25'000.0);
  EXPECT_THROW((void)plan_shards(tiling, /*k=*/100, /*max_shard_users=*/200),
               std::invalid_argument);
}

}  // namespace
}  // namespace glove::shard
