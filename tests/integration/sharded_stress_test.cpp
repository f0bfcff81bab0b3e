// Large-population stress pass for --strategy=sharded, run by the weekly
// scheduled CI job (Release and TSan) and skipped in normal ctest runs.
//
// Environment knobs:
//   GLOVE_STRESS=1            enable the suite (skipped otherwise)
//   GLOVE_STRESS_USERS        population of the sharded-only pass
//                             (default 100000)
//   GLOVE_SPEEDUP_USERS       population of the sharded-vs-full wall-clock
//                             comparison (default 2000; the full O(|M|^2)
//                             run bounds how large this can be)
//   GLOVE_THREADS             shared-pool workers (also the shard
//                             scheduler default)

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "glove/api/engine.hpp"
#include "glove/core/glove.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/synth/generator.hpp"
#include "glove/util/flags.hpp"

namespace glove {
namespace {

bool stress_enabled() {
  const char* flag = std::getenv("GLOVE_STRESS");
  return flag != nullptr && *flag != '\0' && *flag != '0';
}

cdr::FingerprintDataset stress_population(std::size_t users) {
  synth::SynthConfig config = synth::civ_like(users, /*seed=*/29);
  config.days = 3.0;
  return synth::generate_dataset(config);
}

/// The sharded run every stress test makes, scaled down with the
/// population so reduced-scale runs (TSan job, local smoke) still exercise
/// multiple shards.
api::RunConfig sharded_config(const cdr::FingerprintDataset& data) {
  api::RunConfig config;
  config.strategy = api::kStrategySharded;
  config.k = 2;
  config.sharded.tile_size_m = 10'000.0;
  config.sharded.max_shard_users = std::clamp<std::size_t>(
      data.size() / 8, config.k, 2'000);
  return config;
}

double run_seconds(const Engine& engine, const cdr::FingerprintDataset& data,
                   const api::RunConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  const auto result = engine.run(data, config);
  EXPECT_TRUE(result.ok()) << config.strategy << ": "
                           << (result.ok() ? "" : result.error().message);
  EXPECT_TRUE(core::is_k_anonymous(result.value().anonymized, config.k))
      << config.strategy;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(ShardedStress, LargePopulationEndToEnd) {
  if (!stress_enabled()) {
    GTEST_SKIP() << "set GLOVE_STRESS=1 to run the stress pass";
  }
  const auto users = static_cast<std::size_t>(
      util::env_int("GLOVE_STRESS_USERS", 100'000));
  const cdr::FingerprintDataset data = stress_population(users);

  const Engine engine;
  const auto result = engine.run(data, sharded_config(data));
  ASSERT_TRUE(result.ok()) << result.error().message;
  const api::RunReport& report = result.value();

  EXPECT_TRUE(core::is_k_anonymous(report.anonymized, 2));
  EXPECT_EQ(report.counters.input_users, data.total_users());
  EXPECT_GE(api::find_metric(report, "shards"), 2.0);
  EXPECT_FALSE(report.shard_timings.empty());
  std::uint64_t covered = 0;
  for (const shard::ShardTiming& row : report.shard_timings) {
    covered += row.input_fingerprints + row.deferred;
  }
  EXPECT_EQ(covered, data.size());
}

TEST(ShardedStress, ShardedBeatsFullWallClockByThreeX) {
  if (!stress_enabled()) {
    GTEST_SKIP() << "set GLOVE_STRESS=1 to run the stress pass";
  }
  const auto users = static_cast<std::size_t>(
      util::env_int("GLOVE_SPEEDUP_USERS", 2'000));
  const cdr::FingerprintDataset data = stress_population(users);
  const Engine engine;

  api::RunConfig full;
  full.strategy = api::kStrategyFull;
  full.k = 2;
  const double full_seconds = run_seconds(engine, data, full);

  const api::RunConfig sharded = sharded_config(data);
  const double sharded_seconds = run_seconds(engine, data, sharded);

  // Both strategies run the same GLOVE node heap, and both use the idle
  // cores: `full` rescans its heap keys in parallel batches, and the shard
  // and reconcile jobs of an in-memory run share one batch on the
  // workers.  Neither holds per-pair state, and with the slot bound
  // tiling cuts little of the exact work at small populations.  Nor does
  // `full` bound every pair: its keys and rescans search one candidate
  // grid and bound only the boxes of the cells they open.  What is left
  // of the margin is shard parallelism, and the smaller rescans of shards,
  // whose greedy loops and grids hold only their own members.  The shard
  // jobs keep the cores busier than `full`'s rescan batches do; the margin
  // needs about four free cores.
  EXPECT_LE(sharded_seconds * 3.0, full_seconds)
      << "sharded " << sharded_seconds << "s vs full " << full_seconds
      << "s on " << data.size() << " fingerprints";
  // The margin is the number to watch, so the log keeps it on a pass too.
  std::printf("full %.3f s, sharded %.3f s on %zu fingerprints: %.2fx\n",
              full_seconds, sharded_seconds, data.size(),
              full_seconds / sharded_seconds);
}

TEST(ShardedStress, ShardedSeedsFarFewerCandidatesThanFull) {
  // core.heap.seeded counts the pairs the seeded keys of a GLOVE run
  // cover, n(n-1)/2 for n fingerprints: every pair of the population for
  // `full`, the pairs within each shard or reconcile chunk for `sharded`,
  // the only pairs its greedy loops can merge.  It counts pairs, not box
  // bounds: a seeded key is one candidate-grid query that bounds only the
  // boxes of the cells it opens, so this gap is not where the wall-clock
  // margin of ShardedBeatsFullWallClockByThreeX comes from.  Measured on
  // this population: 10.4x fewer at 800 users, 11.3x at 3000.
  if (!stress_enabled()) {
    GTEST_SKIP() << "set GLOVE_STRESS=1 to run the stress pass";
  }
  const auto users = static_cast<std::size_t>(
      util::env_int("GLOVE_SPEEDUP_USERS", 2'000));
  const cdr::FingerprintDataset data = stress_population(users);
  const Engine engine;
  const auto seeded = [&](const api::RunConfig& config) {
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    (void)run_seconds(engine, data, config);
    return obs::snapshot_metrics().counter_value("core.heap.seeded") -
           before.counter_value("core.heap.seeded");
  };

  api::RunConfig full;
  full.strategy = api::kStrategyFull;
  full.k = 2;
  const std::uint64_t full_seeded = seeded(full);
  const std::uint64_t sharded_seeded = seeded(sharded_config(data));
  EXPECT_GE(full_seeded, 5 * sharded_seeded)
      << "sharded seeded " << sharded_seeded << " vs full " << full_seeded
      << " on " << data.size() << " fingerprints";
}

TEST(ShardedStress, ByteStableAcrossWorkerCountsAtScale) {
  if (!stress_enabled()) {
    GTEST_SKIP() << "set GLOVE_STRESS=1 to run the stress pass";
  }
  const auto users = static_cast<std::size_t>(
      util::env_int("GLOVE_SPEEDUP_USERS", 2'000));
  const cdr::FingerprintDataset data = stress_population(users);
  const Engine engine;

  std::string reference;
  for (const std::size_t workers : {1u, 4u}) {
    api::RunConfig config = sharded_config(data);
    config.sharded.workers = workers;
    const auto result = engine.run(data, config);
    ASSERT_TRUE(result.ok()) << result.error().message;
    const std::string csv = test::dataset_to_csv(result.value().anonymized);
    if (reference.empty()) {
      reference = csv;
    } else {
      EXPECT_EQ(csv, reference) << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace glove
