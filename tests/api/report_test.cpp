// RunReport serialization: a golden file locks the JSON schema (key set,
// nesting, ordering), and a report file is JSON whatever its extension.

#include "glove/api/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

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

TEST(RunReport, ExtraMetricsSerializeUnderMetrics) {
  RunReport report = deterministic_report();
  report.extra_metrics = {{"clusters", 4.0}, {"mean_position_error_m", 12.5}};
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"clusters\": 4.0"), std::string::npos);
  EXPECT_NE(json.find("\"mean_position_error_m\": 12.5"), std::string::npos);
}

}  // namespace
}  // namespace glove::api
