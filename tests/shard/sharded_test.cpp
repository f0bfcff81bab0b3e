// The sharded backend's externally-visible guarantees: k-anonymity of the
// whole output, no user lost, byte-stable determinism across worker
// counts, bounded accuracy cost versus the single-matrix `full` run, and
// the Engine integration (validation, metrics, per-shard timing rows).

#include "glove/shard/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "glove/api/engine.hpp"
#include "glove/api/source.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/glove.hpp"

namespace glove::shard {
namespace {

/// Config that splits the ~50 km-wide synthetic population into several
/// small shards, so every phase (halo deferral, parallel shard runs,
/// reconciliation) is exercised.
ShardConfig small_shard_config() {
  ShardConfig config;
  config.tile_size_m = 5'000.0;
  config.max_shard_users = 16;
  config.halo_m = 500.0;
  return config;
}

/// Runs the sharded pipeline over an in-memory dataset, with GLOVE's
/// default knobs unless `glove` names others, and collects the groups
/// under the canonical output name ("<name>-sharded-k<k>").
cdr::FingerprintDataset run_sharded(const cdr::FingerprintDataset& data,
                                    const ShardConfig& config,
                                    StreamShardedResult* result = nullptr,
                                    const core::GloveConfig& glove = {}) {
  api::MemorySource stream{data};
  std::vector<cdr::Fingerprint> groups;
  StreamShardedResult streamed = anonymize_sharded_stream(
      stream, glove, config,
      [&](cdr::Fingerprint&& fp) { groups.push_back(std::move(fp)); });
  if (result != nullptr) *result = std::move(streamed);
  return cdr::FingerprintDataset{
      std::move(groups), data.name() + "-sharded-k" + std::to_string(glove.k)};
}

std::vector<cdr::UserId> sorted_members(const cdr::FingerprintDataset& data) {
  std::vector<cdr::UserId> users;
  for (const cdr::Fingerprint& fp : data.fingerprints()) {
    users.insert(users.end(), fp.members().begin(), fp.members().end());
  }
  std::sort(users.begin(), users.end());
  return users;
}

TEST(Sharded, OutputIsKAnonymousAndLosesNoUser) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  for (const std::uint32_t k : {2u, 3u, 5u}) {
    StreamShardedResult result;
    const cdr::FingerprintDataset out =
        run_sharded(data, small_shard_config(), &result, test::glove_config(k));
    EXPECT_TRUE(core::is_k_anonymous(out, k)) << "k=" << k;
    EXPECT_EQ(sorted_members(out), sorted_members(data)) << "k=" << k;
    EXPECT_GE(result.stats.shards, 2u);
  }
}

TEST(Sharded, MatchesGoldenDataset) {
  // Locks the sharded pipeline's exact output bytes across refactors: the
  // golden was blessed on the dedicated-pool backend (PR 3) and the
  // streaming rewrite must reproduce it byte for byte.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  test::expect_matches_golden(
      "sharded_synth60_k2.csv",
      test::dataset_to_csv(run_sharded(data, small_shard_config())));
}

TEST(Sharded, ByteStableAcrossWorkerCounts) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  std::string reference;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ShardConfig config = small_shard_config();
    config.workers = workers;
    const std::string csv = test::dataset_to_csv(run_sharded(data, config));
    if (reference.empty()) {
      reference = csv;
    } else {
      EXPECT_EQ(csv, reference) << "workers=" << workers;
    }
  }
}

TEST(Sharded, SuppressLeftoverPolicyIsHonoured) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(50);
  core::GloveConfig glove = test::glove_config(3);
  glove.leftover_policy = core::LeftoverPolicy::kSuppress;
  StreamShardedResult result;
  const cdr::FingerprintDataset out =
      run_sharded(data, small_shard_config(), &result, glove);
  EXPECT_TRUE(core::is_k_anonymous(out, 3));
  // Users either survive in a group or are counted as discarded.
  EXPECT_EQ(sorted_members(out).size() +
                result.stats.glove.discarded_fingerprints,
            data.size());
}

/// Parity vs the single-matrix run: tiling confines merges to shards, so
/// the sharded output pays extra stretch for border users.  This test
/// documents the expected delta: the median published position/time
/// accuracy stays within a small factor of the `full` run's, and never
/// collapses (both datasets remain k-anonymous partitions of the same
/// users).  The factor below is intentionally loose — it is a regression
/// tripwire for gross quality loss (e.g. a broken border policy), not a
/// tight quality spec.
TEST(Sharded, AccuracyStaysWithinToleranceOfFull) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);

  core::GloveConfig full_config;
  full_config.k = 2;
  const core::GloveResult full = core::anonymize(data, full_config);
  const auto full_summary =
      core::summarize_accuracy(core::measure_accuracy(full.anonymized));

  const cdr::FingerprintDataset sharded =
      run_sharded(data, small_shard_config());
  const auto sharded_summary =
      core::summarize_accuracy(core::measure_accuracy(sharded));

  EXPECT_TRUE(core::is_k_anonymous(sharded, 2));
  // Tiling cost: allow up to 3x the full run's median accuracy loss plus
  // one grid cell / one minute of slack for quantization noise.
  EXPECT_LE(sharded_summary.median_position_m,
            3.0 * full_summary.median_position_m + 100.0);
  EXPECT_LE(sharded_summary.median_time_min,
            3.0 * full_summary.median_time_min + 1.0);
}

TEST(Sharded, EngineRunProducesMetricsAndShardTimings) {
  const glove::Engine engine;
  api::RunConfig config;
  config.strategy = api::kStrategySharded;
  config.k = 2;
  config.sharded.tile_size_m = 5'000.0;
  config.sharded.max_shard_users = 16;
  const auto result = engine.run(test::small_synth_dataset(60), config);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const api::RunReport& report = result.value();

  EXPECT_TRUE(core::is_k_anonymous(report.anonymized, 2));
  EXPECT_GE(api::find_metric(report, "shards"), 2.0);
  EXPECT_GE(api::find_metric(report, "tiles"),
            api::find_metric(report, "shards"));
  ASSERT_GE(report.shard_timings.size(), 2u);
  std::uint64_t covered = 0;
  for (const shard::ShardTiming& row : report.shard_timings) {
    covered += row.input_fingerprints + row.deferred;
  }
  EXPECT_EQ(covered, report.counters.input_users);

  // The timing rows serialize under "shards" in the JSON report.
  const std::string json = api::to_json(report);
  EXPECT_NE(json.find("\"shards\": ["), std::string::npos);
  EXPECT_NE(json.find("\"input_fingerprints\""), std::string::npos);

  // The report closes with the "exec" section, which holds the job
  // threads and nothing else.
  EXPECT_GE(report.exec_workers, 1u);
  const std::string exec = "\n  \"exec\": {\n    \"workers\": " +
                           std::to_string(report.exec_workers) + "\n  }\n}\n";
  ASSERT_GE(json.size(), exec.size());
  EXPECT_EQ(json.substr(json.size() - exec.size()), exec) << json;
}

TEST(Sharded, EngineValidatesConfig) {
  const glove::Engine engine;
  const cdr::FingerprintDataset data = test::small_synth_dataset(30);

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double tile_m : {-5.0, kNaN, kInf}) {
    api::RunConfig bad_tile;
    bad_tile.strategy = api::kStrategySharded;
    bad_tile.sharded.tile_size_m = tile_m;
    EXPECT_EQ(engine.run(data, bad_tile).error().code,
              api::ErrorCode::kInvalidConfig)
        << tile_m;
  }

  api::RunConfig bad_budget;
  bad_budget.strategy = api::kStrategySharded;
  bad_budget.k = 5;
  bad_budget.sharded.max_shard_users = 3;
  EXPECT_EQ(engine.run(data, bad_budget).error().code,
            api::ErrorCode::kInvalidConfig);

  for (const double halo_m : {-1.0, kNaN, kInf}) {
    api::RunConfig bad_halo;
    bad_halo.strategy = api::kStrategySharded;
    bad_halo.sharded.halo_m = halo_m;
    EXPECT_EQ(engine.run(data, bad_halo).error().code,
              api::ErrorCode::kInvalidConfig)
        << halo_m;
  }

  // A wrapped negative (e.g. --shard-workers=-1 cast to size_t) must be
  // rejected before it drives thread creation.
  api::RunConfig bad_workers;
  bad_workers.strategy = api::kStrategySharded;
  bad_workers.sharded.workers = static_cast<std::size_t>(-1);
  EXPECT_EQ(engine.run(data, bad_workers).error().code,
            api::ErrorCode::kInvalidConfig);
}

TEST(Sharded, HaloWiderThanTheTileGridDefersEveryFingerprint) {
  // A finite halo whose inflated boxes reach past the int32 tile grid
  // makes every fingerprint a wide wanderer: the border split counts its
  // overlapped tiles in doubles and defers it to reconciliation.  Asking
  // the grid for the inflated corners used to fail the run as
  // invalid-dataset ("fingerprint 5 lies off the tile grid").
  const glove::Engine engine;
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  api::RunConfig config;
  config.strategy = api::kStrategySharded;
  config.sharded.tile_size_m = 5'000.0;
  config.sharded.max_shard_users = 16;
  config.sharded.halo_m = 1e14;
  const auto result = engine.run(data, config);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const api::RunReport& report = result.value();
  EXPECT_GE(api::find_metric(report, "shards"), 2.0);
  EXPECT_EQ(api::find_metric(report, "deferred_fingerprints"),
            static_cast<double>(data.size()));
  EXPECT_TRUE(core::is_k_anonymous(report.anonymized, 2));
  EXPECT_EQ(sorted_members(report.anonymized), sorted_members(data));
}

TEST(Sharded, AdaptiveTileSizeIsUsedWhenConfiguredZero) {
  // tile_size_m == 0 derives the tile edge from the observed anchor
  // density during the planning pass; the resolved value is reported.
  const glove::Engine engine;
  api::RunConfig config;
  config.strategy = api::kStrategySharded;
  config.k = 2;
  config.sharded.tile_size_m = 0.0;
  config.sharded.max_shard_users = 16;
  const auto result = engine.run(test::small_synth_dataset(60), config);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const double resolved = api::find_metric(result.value(), "tile_size_m");
  EXPECT_GE(resolved, 1'000.0);
  EXPECT_LE(resolved, 200'000.0);
  EXPECT_TRUE(core::is_k_anonymous(result.value().anonymized, 2));

  // Deterministic: the same input resolves to the same decomposition.
  const auto again = engine.run(test::small_synth_dataset(60), config);
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(api::find_metric(again.value(), "tile_size_m"), resolved);
  EXPECT_EQ(test::dataset_to_csv(again.value().anonymized),
            test::dataset_to_csv(result.value().anonymized));
}

}  // namespace
}  // namespace glove::shard
