// Engine boundary behavior: typed errors on bad input (no throwing across
// the API), and the RunConfig the shared CLI flags build.

#include "glove/api/engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/temp_dir.hpp"
#include "glove/api/cli.hpp"
#include "glove/cdr/binio.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/glove.hpp"
#include "glove/synth/generator.hpp"
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

/// Expects `result` to fail as kInvalidDataset with `what` in its message.
void expect_invalid_dataset(const Result<RunReport>& result,
                            const std::string& what,
                            const std::string& where) {
  ASSERT_FALSE(result.ok()) << where;
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidDataset)
      << where << ": " << result.error().message;
  EXPECT_NE(result.error().message.find(what), std::string::npos)
      << where << ": " << result.error().message;
}

/// Runs `config` over the dataset file at `path`, CSV or glovebin.
Result<RunReport> run_file(const Engine& engine, const std::string& path,
                           const RunConfig& config) {
  const std::unique_ptr<DatasetSource> source = open_dataset_source(path);
  MemorySink sink;
  return engine.run(*source, sink, config);
}

/// Rewrites the footer summary of fingerprint 0 in the glovebin file at
/// `path` to claim a group of `size`: the summary's u32 at byte 48, where
/// the summaries start at the trailer's third u64.
void patch_first_group_size(const std::string& path, char size) {
  std::ifstream in{path, std::ios::binary};
  std::string bytes{std::istreambuf_iterator<char>{in},
                    std::istreambuf_iterator<char>{}};
  in.close();
  std::size_t summaries_at = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto byte = static_cast<unsigned char>(bytes[bytes.size() - 32 + i]);
    summaries_at |= std::size_t{byte} << (8 * i);
  }
  ASSERT_EQ(bytes[summaries_at + 48], '\x01');
  bytes[summaries_at + 48] = size;
  std::ofstream{path, std::ios::binary | std::ios::trunc} << bytes;
}

TEST(Engine, EveryDatasetFaultIsInvalidDatasetFromEveryStrategy) {
  // A dataset fault is refused once, by the code that consumes the data,
  // as util::DatasetError: the same code from every strategy and run
  // shape, with the counts or ids at fault in the message.
  const Engine engine;
  const test::TempDir dir;

  // Smaller than k: paired_dataset holds 7 fingerprints.
  const std::string too_small =
      "dataset holds 7 fingerprints, fewer than the target anonymity level 8";
  for (const std::string& strategy : engine.strategies()) {
    RunConfig config;
    config.strategy = strategy;
    config.k = 8;
    expect_invalid_dataset(engine.run(test::paired_dataset(), config),
                           too_small, strategy);
  }

  // Incremental: a release that is not k-anonymous, grouped newcomers,
  // and a newcomer whose id is already published.
  const cdr::FingerprintDataset raw =
      synth::generate_dataset(synth::civ_like(40, 7));
  const auto first = engine.run(raw, RunConfig{});
  ASSERT_TRUE(first.ok()) << first.error().message;
  const cdr::FingerprintDataset& release = first.value().anonymized;
  RunConfig incremental;
  incremental.strategy = kStrategyIncremental;
  incremental.incremental.published = &raw;  // singles: not 2-anonymous
  const cdr::FingerprintDataset newcomers =
      test::random_dataset(4, 9, 6, 10'000);
  expect_invalid_dataset(engine.run(newcomers, incremental),
                         "published release is not k-anonymous: group 0 "
                         "hides 1 users, fewer than the anonymity level 2",
                         "incremental over a raw release");
  incremental.incremental.published = &release;
  const std::string group_size = std::to_string(release[0].group_size());
  expect_invalid_dataset(engine.run(release, incremental),
                         "fingerprint 0 is a group of " + group_size,
                         "incremental with grouped newcomers");
  const cdr::UserId taken = raw[0].members().front();
  const cdr::FingerprintDataset returning{
      {cdr::Fingerprint{taken, {test::cell(0, 0, 0)}}}};
  expect_invalid_dataset(engine.run(returning, incremental),
                         "user id " + std::to_string(taken) +
                             " appears in both the published release and "
                             "the new users",
                         "incremental with a published newcomer");

  // A repeated member id: {5, 5} beside users 1 and 2 would publish user
  // 5 alone.  Both formats refuse it with one check.
  std::vector<cdr::Fingerprint> rows;
  rows.emplace_back(1u, std::vector<cdr::Sample>{test::cell(0, 0, 0)});
  rows.emplace_back(2u, std::vector<cdr::Sample>{test::cell(5'000, 0, 300)});
  rows.emplace_back(std::vector<cdr::UserId>{5u, 5u},
                    std::vector<cdr::Sample>{test::cell(9'000, 0, 600)});
  const cdr::FingerprintDataset repeated{rows, "repeated"};
  const std::string repeated_csv = dir.file("repeated.csv");
  const std::string repeated_bin = dir.file("repeated.glovebin");
  cdr::write_dataset_file(repeated_csv, repeated);
  cdr::write_dataset_glovebin_file(repeated_bin, repeated);
  for (const std::string& strategy : engine.strategies()) {
    RunConfig config;
    config.strategy = strategy;
    for (const std::string& path : {repeated_csv, repeated_bin}) {
      expect_invalid_dataset(run_file(engine, path, config),
                             "duplicate user id 5", strategy + " " + path);
    }
  }

  // User 5 split across two fingerprints would be published in the group
  // 5+5, or in two groups.  Four corners at +-1.5e308 m generalize to an
  // infinite extent that no reader accepts back; the sharded run finds
  // them off its tile grid first.  Refused in memory and from both
  // formats.
  const auto single = [](cdr::UserId user, const cdr::Sample& sample) {
    return cdr::Fingerprint{user, {sample}};
  };
  const double edge = 1.5e308;
  const std::vector<std::pair<cdr::FingerprintDataset, std::string>> faults{
      {cdr::FingerprintDataset{{single(5u, test::cell(0, 0, 0)),
                                single(1u, test::cell(5'000, 0, 300)),
                                single(5u, test::cell(0, 0, 2)),
                                single(2u, test::cell(9'000, 0, 600))},
                               "split"},
       "user id 5 appears more than once"},
      {cdr::FingerprintDataset{
           {single(1u, test::box(edge, 1, edge, 1, 0, 1)),
            single(2u, test::box(edge, 1, -edge, 1, 0, 1)),
            single(3u, test::box(-edge, 1, edge, 1, 0, 1)),
            single(4u, test::box(-edge, 1, -edge, 1, 0, 1))},
           "overflow"},
       "must be finite"}};
  for (const auto& [data, fault] : faults) {
    const std::string csv = dir.file(data.name() + ".csv");
    const std::string bin = dir.file(data.name() + ".glovebin");
    cdr::write_dataset_file(csv, data);
    cdr::write_dataset_glovebin_file(bin, data);
    for (const std::string& strategy : engine.strategies()) {
      RunConfig config;
      config.strategy = strategy;
      const std::string what =
          strategy == kStrategySharded && data.name() == "overflow"
              ? "lies off the tile grid"
              : fault;
      expect_invalid_dataset(engine.run(data, config), what,
                             strategy + " " + data.name());
      for (const std::string& path : {csv, bin}) {
        expect_invalid_dataset(run_file(engine, path, config), what,
                               strategy + " " + path);
      }
    }
  }

  // User 5 split across two shards, one batch each at one job thread:
  // each job sees only its own members, so only the sharded run's check
  // across batches can refuse it.  With user 6 in place of the second 5
  // the run succeeds, in two shards and two batches.
  RunConfig two_batches;
  two_batches.strategy = kStrategySharded;
  two_batches.sharded.tile_size_m = 10'000.0;
  two_batches.sharded.max_shard_users = 2;
  two_batches.sharded.workers = 1;
  const auto far_apart = [&](cdr::UserId second) {
    return cdr::FingerprintDataset{{single(5u, test::cell(0, 0, 0)),
                                    single(1u, test::cell(1'000, 0, 300)),
                                    single(second, test::cell(100'000, 0, 2)),
                                    single(2u, test::cell(101'000, 0, 600))},
                                   "far-split"};
  };
  const std::string far_csv = dir.file("far-split.csv");
  cdr::write_dataset_file(far_csv, far_apart(6u));
  const auto distinct = run_file(engine, far_csv, two_batches);
  ASSERT_TRUE(distinct.ok()) << distinct.error().message;
  EXPECT_EQ(find_metric(distinct.value(), "shards", 0.0), 2.0);
  EXPECT_EQ(distinct.value().pass_fingerprints.size(), 3u);
  cdr::write_dataset_file(far_csv, far_apart(5u));
  expect_invalid_dataset(run_file(engine, far_csv, two_batches),
                         "user id 5 appears more than once",
                         "sharded across batches");
  expect_invalid_dataset(engine.run(far_apart(5u), two_batches),
                         "user id 5 appears more than once",
                         "sharded in memory");

  // A glovebin footer that claims a group of 5 for user 0: the sharded run
  // plans from the footer alone, and with every fingerprint deferred it
  // would pass that "group" through reconcile unmerged.
  const std::string lie = dir.file("lie.glovebin");
  cdr::write_dataset_glovebin_file(lie, test::small_synth_dataset(60, 1.0, 5));
  RunConfig deferring;
  deferring.strategy = kStrategySharded;
  deferring.sharded.tile_size_m = 1'000.0;
  deferring.sharded.halo_m = 100'000.0;
  deferring.sharded.max_shard_users = 4;
  ASSERT_TRUE(run_file(engine, lie, deferring).ok());
  patch_first_group_size(lie, '\x05');
  expect_invalid_dataset(run_file(engine, lie, deferring),
                         "fingerprint 0 does not match its footer summary",
                         "sharded over a lying footer");

  // A finite coordinate off the sharded run's tile grid.
  rows[0] = cdr::Fingerprint{1u, {test::cell(1e300, 0, 0)}};
  rows[2] = cdr::Fingerprint{3u, {test::cell(9'000, 0, 600)}};
  RunConfig sharded;
  sharded.strategy = kStrategySharded;
  expect_invalid_dataset(engine.run(cdr::FingerprintDataset{rows}, sharded),
                         "fingerprint 0 lies off the tile grid",
                         "sharded over a 1e300 m coordinate");
}

TEST(Engine, RejectsUnknownStrategyListingRegisteredNames) {
  // "distributed": a future backend, not yet registered; "chunked": a
  // retired one, whose low-memory role is the sharded run's with one
  // worker.
  const Engine engine;
  for (const std::string name : {"distributed", "chunked"}) {
    RunConfig config;
    config.strategy = name;
    const auto result = engine.run(test::paired_dataset(), config);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.error().code, ErrorCode::kUnknownStrategy) << name;
    EXPECT_EQ(result.error().message,
              "unknown strategy '" + name +
                  "' (registered: full incremental sharded w4m-baseline)");
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Engine, RejectsNonPositiveSuppressionThresholds) {
  const Engine engine;
  for (const auto& [spatial_m, temporal_min] :
       std::vector<std::pair<double, double>>{
           {0.0, 360.0}, {kNaN, 360.0}, {15'000.0, kNaN}, {-kInf, 360.0}}) {
    RunConfig config;
    config.suppression = core::SuppressionThresholds{spatial_m, temporal_min};
    const auto result = engine.run(test::paired_dataset(), config);
    ASSERT_FALSE(result.ok()) << spatial_m << ' ' << temporal_min;
    EXPECT_EQ(result.error().code, ErrorCode::kInvalidConfig);
  }
  // +inf leaves an axis unbounded: the CLI sets an unset axis to it.
  RunConfig unbounded;
  unbounded.suppression = core::SuppressionThresholds{kInf, 360.0};
  const auto result = engine.run(test::paired_dataset(), unbounded);
  EXPECT_TRUE(result.ok()) << result.error().message;
}

TEST(Engine, RejectsBadW4MTrashFraction) {
  const Engine engine;
  for (const double fraction : {1.5, 1.0, -0.1, kNaN, kInf}) {
    RunConfig config;
    config.strategy = kStrategyW4M;
    config.w4m.trash_fraction = fraction;
    const auto result = engine.run(test::paired_dataset(), config);
    ASSERT_FALSE(result.ok()) << fraction;
    EXPECT_EQ(result.error().code, ErrorCode::kInvalidConfig) << fraction;
    // A failed Result holds no report, hence no dataset; value() access
    // fails loudly instead of handing one back.
    EXPECT_THROW((void)result.value(), std::logic_error);
  }
}

TEST(Engine, RejectsNonFiniteOrNegativeLimitsAndW4MDistances) {
  // Checked before any data is read: these values used to run and
  // "succeed", or fail later with the fault blamed on the data.
  const Engine engine;
  std::vector<std::pair<std::string, RunConfig>> faults;
  const auto fault = [&faults](const std::string& field, double value,
                               std::string_view strategy) -> RunConfig& {
    RunConfig& config =
        faults.emplace_back(field + "=" + std::to_string(value), RunConfig{})
            .second;
    config.strategy = std::string{strategy};
    return config;
  };
  for (const double bad : {kNaN, kInf, 0.0}) {
    fault("phi_max_sigma_m", bad, kStrategyFull).limits.phi_max_sigma_m = bad;
    fault("phi_max_tau_min", bad, kStrategySharded).limits.phi_max_tau_min =
        bad;
    fault("w4m.delta_m", bad, kStrategyW4M).w4m.delta_m = bad;
  }
  for (const double bad : {kNaN, kInf, -1.0}) {
    fault("w_sigma", bad, kStrategyFull).limits.w_sigma = bad;
    fault("w_tau", bad, kStrategyIncremental).limits.w_tau = bad;
    fault("w4m.match_tolerance_min", bad, kStrategyW4M)
        .w4m.match_tolerance_min = bad;
  }
  for (const auto& [what, config] : faults) {
    const auto result = engine.run(test::paired_dataset(), config);
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.error().code, ErrorCode::kInvalidConfig)
        << what << ": " << result.error().message;
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
  EXPECT_EQ(report.config.strategy, "full");
  EXPECT_EQ(report.counters.input_users, 30u);
  EXPECT_GT(report.counters.output_groups, 0u);
  EXPECT_GT(report.counters.merges, 0u);
  EXPECT_TRUE(core::is_k_anonymous(report.anonymized, 2));
  EXPECT_EQ(report.config.k, 2u);
  ASSERT_TRUE(report.config.suppression.has_value());
  EXPECT_DOUBLE_EQ(report.config.suppression->max_spatial_extent_m, 15'000.0);
  EXPECT_GE(report.timings.total_seconds, 0.0);
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
  EXPECT_EQ(config.sharded.tile_size_m, 0.0);
  EXPECT_EQ(config.sharded.max_shard_users, 2'000u);
  EXPECT_EQ(config.sharded.workers, 4u);
  EXPECT_EQ(config.sharded.halo_m, 1'000.0);  // the --halo-km default
}

TEST(Engine, RunConfigFromFlagsRejectsValuesThatDoNotFitTheirField) {
  // --k=4294967298 used to wrap to k=2 and run; --shard-users=-1 to ~2^64.
  const Engine engine;
  for (const char* arg : {"--k=4294967298", "--k=-1", "--shard-users=-1",
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

TEST(Engine, BorderFlagAcceptsOnlyHalo) {
  // --border=halo parses and sets nothing: a sharded run always defers its
  // border fingerprints.  --border=none, which kept them in their home
  // shard, is refused.
  const Engine engine;
  util::Flags halo{"engine test"};
  define_run_flags(halo, engine);
  const char* const halo_argv[] = {"--border=halo"};
  halo.parse(1, halo_argv);
  util::Flags unset{"engine test"};
  define_run_flags(unset, engine);
  unset.parse(0, nullptr);
  RunReport with_flag;
  with_flag.config = run_config_from_flags(halo);
  RunReport without_flag;
  without_flag.config = run_config_from_flags(unset);
  EXPECT_EQ(to_json(with_flag), to_json(without_flag));

  util::Flags none{"engine test"};
  define_run_flags(none, engine);
  const char* const none_argv[] = {"--border=none"};
  try {
    none.parse(1, none_argv);
    FAIL() << "--border=none parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()},
              "invalid value 'none' for --border (choices: halo)");
  }
}

}  // namespace
}  // namespace glove::api
