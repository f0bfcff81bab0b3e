// RunReport serialization: a golden file locks the JSON schema (key set,
// nesting, ordering), the config echo holds every knob the run used, and
// a report file is JSON whatever its extension.

#include "glove/api/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/temp_dir.hpp"
#include "glove/api/engine.hpp"

namespace glove::api {
namespace {

/// A real run with the timing and memory fields zeroed, so serialization
/// is deterministic and golden-comparable.
RunReport deterministic_report() {
  const Engine engine;
  RunConfig config;
  config.k = 2;
  config.suppression = core::SuppressionThresholds{15'000.0, 360.0};
  auto result = engine.run(test::paired_dataset(), config);
  EXPECT_TRUE(result.ok());
  RunReport report = std::move(result).value();
  report.timings = RunTimings{};
  report.peak_rss_bytes = 0;
  return report;
}

TEST(RunReport, JsonSchemaMatchesGoldenFile) {
  test::expect_matches_golden("run_report.json",
                              to_json(deterministic_report()));
}

TEST(RunReport, WriteReportFileWritesJsonWhateverTheExtension) {
  const RunReport report = deterministic_report();
  test::TempDir dir;

  for (const char* name : {"report.json", "report.csv"}) {
    const std::string path = dir.file(name);
    write_report_file(path, report);
    std::ifstream in{path};
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), to_json(report)) << name;
  }
}

TEST(RunReport, ConfigEchoesSuppressionOffAndNonDefaultSections) {
  // The golden echoes one config: suppression on and default sections.
  // This one pins the rest: suppression off (echoed with zero
  // thresholds), reshaping off, the suppress leftover policy, and
  // non-default limits and sharded and W4M sections.
  const Engine engine;
  RunConfig config;
  config.strategy = std::string{kStrategySharded};
  config.k = 3;
  config.limits.phi_max_sigma_m = 12'500.0;
  config.limits.w_tau = 0.25;
  config.reshape = false;
  config.leftover_policy = core::LeftoverPolicy::kSuppress;
  config.sharded.tile_size_m = 5'000.0;
  config.sharded.max_shard_users = 120;
  config.sharded.workers = 2;
  config.sharded.halo_m = 2'000.0;
  config.w4m.delta_m = 1'500.0;
  config.w4m.trash_fraction = 0.25;
  config.w4m.chunk_size = 64;
  config.w4m.match_tolerance_min = 2.5;
  const auto result = engine.run(test::small_synth_dataset(30), config);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const std::string json = to_json(result.value());
  const std::size_t begin = json.find("  \"config\": {");
  const std::size_t end = json.find("  \"counters\": {");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(json.substr(begin, end - begin), R"(  "config": {
    "strategy": "sharded",
    "k": 3,
    "limits": {
      "phi_max_sigma_m": 12500.0,
      "phi_max_tau_min": 480.0,
      "w_sigma": 0.5,
      "w_tau": 0.25
    },
    "suppression": {
      "enabled": false,
      "max_spatial_extent_m": 0.0,
      "max_temporal_extent_min": 0.0
    },
    "reshape": false,
    "leftover_policy": "suppress",
    "sharded": {
      "tile_size_m": 5000.0,
      "max_shard_users": 120,
      "workers": 2,
      "halo_m": 2000.0
    },
    "w4m": {
      "delta_m": 1500.0,
      "trash_fraction": 0.25,
      "chunk_size": 64,
      "match_tolerance_min": 2.5
    }
  },
)");
}

TEST(RunReport, ExtraMetricsSerializeUnderMetrics) {
  RunReport report = deterministic_report();
  report.extra_metrics = {{"clusters", 4.0}, {"mean_position_error_m", 12.5}};
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"clusters\": 4.0"), std::string::npos);
  EXPECT_NE(json.find("\"mean_position_error_m\": 12.5"), std::string::npos);
}

}  // namespace
}  // namespace glove::api
