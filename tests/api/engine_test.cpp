// Engine boundary behavior: typed errors on bad input (no throwing across
// the API), cooperative cancellation with no partial output, monotone
// progress reporting, and the RunConfig the shared CLI flags build.

#include "glove/api/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/temp_dir.hpp"
#include "glove/api/cli.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/glove.hpp"
#include "glove/util/flags.hpp"

namespace glove::api {
namespace {

TEST(Engine, RejectsKBelowTwo) {
  const Engine engine;
  RunConfig config;
  config.k = 1;
  const auto result = engine.run(test::paired_dataset(), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidConfig);
}

TEST(Engine, RejectsEmptyDataset) {
  const Engine engine;
  const auto result = engine.run(cdr::FingerprintDataset{}, RunConfig{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidDataset);
}

TEST(Engine, RejectsDatasetSmallerThanK) {
  const Engine engine;
  RunConfig config;
  config.k = 100;  // paired_dataset has 7 users
  const auto result = engine.run(test::paired_dataset(), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidDataset);
}

TEST(Engine, RejectsUnknownStrategyListingRegisteredNames) {
  const Engine engine;
  RunConfig config;
  config.strategy = "distributed";  // a future backend, not yet registered
  const auto result = engine.run(test::paired_dataset(), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnknownStrategy);
  EXPECT_NE(result.error().message.find("full"), std::string::npos);
  EXPECT_NE(result.error().message.find("sharded"), std::string::npos);
  EXPECT_NE(result.error().message.find("w4m-baseline"), std::string::npos);
}

TEST(Engine, RejectsChunkSizeBelowK) {
  const Engine engine;
  RunConfig config;
  config.strategy = kStrategyChunked;
  config.k = 3;
  config.chunked.chunk_size = 2;
  const auto result = engine.run(test::paired_dataset(), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidConfig);
}

TEST(Engine, RejectsNonPositiveSuppressionThresholds) {
  const Engine engine;
  RunConfig config;
  config.suppression = core::SuppressionThresholds{0.0, 360.0};
  const auto result = engine.run(test::paired_dataset(), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidConfig);
}

TEST(Engine, RejectsBadW4MTrashFraction) {
  const Engine engine;
  RunConfig config;
  config.strategy = kStrategyW4M;
  config.w4m.trash_fraction = 1.5;
  const auto result = engine.run(test::paired_dataset(), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidConfig);
}

TEST(Engine, PreCancelledTokenYieldsCancelledAndNoOutput) {
  const Engine engine;
  RunConfig config;
  config.cancel = util::CancellationToken{};
  config.cancel->request_cancel();
  const auto result = engine.run(test::small_synth_dataset(30), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kCancelled);
}

TEST(Engine, CancellationMidMergeLeavesNoPartialOutput) {
  const Engine engine;
  RunConfig config;
  util::CancellationToken token;
  config.cancel = token;
  std::atomic<std::uint64_t> reports{0};
  // Cancel from the progress callback once the merge loop has started
  // (the first report lands after initialization).
  config.progress = [&](std::uint64_t, std::uint64_t) {
    if (reports.fetch_add(1) >= 1) token.request_cancel();
  };
  const auto result = engine.run(test::small_synth_dataset(40), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kCancelled);
  // A cancelled Result holds no report, hence no partial dataset; value()
  // access fails loudly instead of handing back half-merged output.
  EXPECT_THROW((void)result.value(), std::logic_error);
}

TEST(Engine, ProgressIsMonotoneAndCompletes) {
  const Engine engine;
  // "incremental" matters here: its decision phase reports from
  // parallel_for worker threads, the hardest case for monotonicity —
  // as does "sharded", whose shard jobs complete on scheduler workers.
  for (const char* strategy :
       {"full", "chunked", "sharded", "incremental", "w4m-baseline"}) {
    RunConfig config;
    config.strategy = strategy;
    config.chunked.chunk_size = 16;
    config.sharded.max_shard_users = 16;
    config.sharded.tile_size_m = 2'000.0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> observed;
    config.progress = [&](std::uint64_t done, std::uint64_t total) {
      observed.emplace_back(done, total);
    };
    const auto result = engine.run(test::small_synth_dataset(30), config);
    ASSERT_TRUE(result.ok()) << strategy << ": " << result.error().message;
    ASSERT_FALSE(observed.empty()) << strategy;
    std::uint64_t previous = 0;
    for (const auto& [done, total] : observed) {
      EXPECT_GE(done, previous) << strategy;
      EXPECT_EQ(total, observed.front().second)
          << strategy << ": total must stay fixed";
      EXPECT_LE(done, total) << strategy;
      previous = done;
    }
    EXPECT_EQ(observed.back().first, observed.back().second)
        << strategy << ": progress must end at done == total";
  }
}

TEST(Engine, RunReportCarriesCountersAndConfigEcho) {
  const Engine engine;
  RunConfig config;
  config.k = 2;
  config.suppression = core::SuppressionThresholds{15'000.0, 360.0};
  const auto result = engine.run(test::small_synth_dataset(30), config);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const RunReport& report = result.value();
  EXPECT_EQ(report.strategy, "full");
  EXPECT_EQ(report.counters.input_users, 30u);
  EXPECT_GT(report.counters.output_groups, 0u);
  EXPECT_GT(report.counters.merges, 0u);
  EXPECT_TRUE(core::is_k_anonymous(report.anonymized, 2));
  EXPECT_EQ(report.config.k, 2u);
  EXPECT_TRUE(report.config.suppression_enabled);
  EXPECT_DOUBLE_EQ(report.config.max_spatial_extent_m, 15'000.0);
  EXPECT_GE(report.timings.total_seconds, 0.0);
}

TEST(Engine, IncrementalRejectsDatasetShapedFailuresAsInvalidDataset) {
  const Engine engine;
  const cdr::FingerprintDataset raw = test::small_synth_dataset(20);

  // A "published" release that is not k-anonymous is a dataset problem,
  // not a config problem.
  RunConfig config;
  config.strategy = kStrategyIncremental;
  config.incremental.published = &raw;  // raw singles: not 2-anonymous
  const cdr::FingerprintDataset newcomers = test::random_dataset(4, 9);
  const auto bad_published = engine.run(newcomers, config);
  ASSERT_FALSE(bad_published.ok());
  EXPECT_EQ(bad_published.error().code, ErrorCode::kInvalidDataset);

  // Newcomers must be single-user records; a grouped input is rejected.
  RunConfig fresh;
  fresh.strategy = kStrategyIncremental;
  const auto first = engine.run(raw, fresh);  // no published: greedy pass
  ASSERT_TRUE(first.ok()) << first.error().message;
  const auto grouped_newcomers = engine.run(first.value().anonymized, fresh);
  ASSERT_FALSE(grouped_newcomers.ok());
  EXPECT_EQ(grouped_newcomers.error().code, ErrorCode::kInvalidDataset);
}

TEST(Engine, IncrementalStrategyUpdatesPublishedRelease) {
  const Engine engine;
  const cdr::FingerprintDataset base = test::small_synth_dataset(24);
  RunConfig config;
  const auto first = engine.run(base, config);
  ASSERT_TRUE(first.ok());

  const cdr::FingerprintDataset newcomers = test::random_dataset(
      /*users=*/6, /*seed=*/11, /*max_samples_per_user=*/6,
      /*first_user=*/10'000);  // disjoint from the base release's ids
  RunConfig update = config;
  update.strategy = kStrategyIncremental;
  update.incremental.published = &first.value().anonymized;
  const auto second = engine.run(newcomers, update);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_TRUE(core::is_k_anonymous(second.value().anonymized, 2));
  EXPECT_EQ(second.value().counters.input_users,
            first.value().counters.input_users + 6);
}

TEST(Engine, RunConfigFromFlagsParsesTheShardedBenchmarkFlags) {
  // perfbench's city_halo_k2 flag line.
  const Engine engine;
  util::Flags flags{"engine test"};
  define_run_flags(flags, engine);
  std::istringstream line{
      "--strategy=sharded --k=2 --border=halo --tile-km=0 "
      "--shard-users=2000 --executor=inprocess --shard-workers=4"};
  std::vector<std::string> args;
  for (std::string arg; line >> arg;) args.push_back(arg);
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  flags.parse(static_cast<int>(argv.size()), argv.data());
  const RunConfig config = run_config_from_flags(flags);
  EXPECT_EQ(config.strategy, kStrategySharded);
  EXPECT_EQ(config.k, 2u);
  EXPECT_FALSE(config.suppression.has_value());
  EXPECT_EQ(config.sharded.border, shard::BorderPolicy::kHalo);
  EXPECT_EQ(config.sharded.tile_size_m, 0.0);
  EXPECT_EQ(config.sharded.max_shard_users, 2'000u);
  EXPECT_EQ(config.sharded.workers, 4u);
  EXPECT_EQ(config.sharded.halo_m, 1'000.0);  // the --halo-km default
}

TEST(Engine, RunConfigFromFlagsRejectsValuesThatDoNotFitTheirField) {
  // --k=4294967298 used to wrap to k=2 and run; --chunk-size=-1 to ~2^64.
  const Engine engine;
  for (const char* arg : {"--k=4294967298", "--k=-1", "--chunk-size=-1",
                          "--shard-workers=-1"}) {
    util::Flags flags{"engine test"};
    define_run_flags(flags, engine);
    const char* const argv[] = {arg};
    flags.parse(1, argv);
    const std::string name{arg, std::string_view{arg}.find('=')};
    try {
      (void)run_config_from_flags(flags);
      ADD_FAILURE() << arg << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(Engine, LoadDatasetNamesATraceByItsStem) {
  const test::TempDir dir;
  std::filesystem::create_directory(dir.file("traces"));
  const std::string path = dir.file("traces/city.csv");
  cdr::write_cdr_file(path, {{1u, 10.0, geo::LatLon{6.8, -5.3}}});
  util::Flags flags{"engine test"};
  define_input_flags(flags);
  flags.parse(0, nullptr);
  EXPECT_EQ(load_dataset(path, flags).name(), "city");
}

TEST(Engine, LoadDatasetRefusesAMinuteIndexOffItsRange) {
  // The flat reader takes any finite time; a time whose minute index does
  // not fit a long long used to publish a group at t = -2^63.
  const test::TempDir dir;
  const std::string path = dir.file("flat.csv");
  util::Flags flags{"engine test"};
  define_input_flags(flags);
  flags.parse(0, nullptr);
  for (const char* time : {"1e300", "-1e300", "9.3e18"}) {
    std::ofstream{path} << "10,0,6.8,-5.3\n11," << time
                        << ",6.8,-5.3\n12,7,6.8,-5.2\n";
    EXPECT_THROW((void)load_dataset(path, flags), std::out_of_range) << time;
  }
  std::ofstream{path} << "10,0,6.8,-5.3\n11,9.2e18,6.8,-5.3\n";
  EXPECT_EQ(load_dataset(path, flags).size(), 2u);
}

TEST(Engine, ExecutorFlagAcceptsOnlyInProcess) {
  const Engine engine;
  util::Flags flags{"engine test"};
  define_run_flags(flags, engine);
  const char* const argv[] = {"--executor=process"};
  try {
    flags.parse(1, argv);
    FAIL() << "--executor=process parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()},
              "invalid value 'process' for --executor (choices: inprocess)");
  }
}

}  // namespace
}  // namespace glove::api
