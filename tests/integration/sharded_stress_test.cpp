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
#include <cstdlib>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "glove/api/engine.hpp"
#include "glove/core/glove.hpp"
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
  api::RunConfig config;
  config.strategy = api::kStrategySharded;
  config.k = 2;
  // Scale the decomposition down with the population so reduced-scale
  // runs (TSan job, local smoke) still exercise multiple shards.
  config.sharded.tile_size_m = 10'000.0;
  config.sharded.max_shard_users = std::clamp<std::size_t>(
      data.size() / 8, config.k, 2'000);
  const auto result = engine.run(data, config);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const api::RunReport& report = result.value();

  EXPECT_TRUE(core::is_k_anonymous(report.anonymized, 2));
  EXPECT_EQ(report.counters.input_users, data.total_users());
  EXPECT_GE(api::find_metric(report, "shards"), 2.0);
  EXPECT_FALSE(report.shard_timings.empty());
  std::uint64_t covered = 0;
  for (const api::ShardTimingRow& row : report.shard_timings) {
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

  api::RunConfig sharded;
  sharded.strategy = api::kStrategySharded;
  sharded.k = 2;
  sharded.sharded.tile_size_m = 10'000.0;
  sharded.sharded.max_shard_users = std::clamp<std::size_t>(
      data.size() / 8, sharded.k, 2'000);
  const double sharded_seconds = run_seconds(engine, data, sharded);

  // Both strategies run the same lower-bound-seeded GLOVE heap, and both
  // use the idle cores: `full` refines its heap candidates in parallel
  // batches, and the shard and reconcile jobs of an in-memory run share
  // one batch on the workers.  The margin comes from tiling cutting the
  // exact work (about 2x at 800 users) and from the shard jobs keeping the
  // cores busier than `full`'s batches do; it needs about four free cores.
  EXPECT_LE(sharded_seconds * 3.0, full_seconds)
      << "sharded " << sharded_seconds << "s vs full " << full_seconds
      << "s on " << data.size() << " fingerprints";
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
    api::RunConfig config;
    config.strategy = api::kStrategySharded;
    config.k = 2;
    config.sharded.tile_size_m = 10'000.0;
    config.sharded.max_shard_users = std::clamp<std::size_t>(
        data.size() / 8, config.k, 2'000);
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
