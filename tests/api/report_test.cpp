// RunReport serialization: a golden file locks the JSON schema (key set,
// nesting, ordering), and the CSV row must stay aligned with its header.

#include "glove/api/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/temp_dir.hpp"
#include "glove/api/engine.hpp"
#include "glove/util/csv.hpp"

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

TEST(RunReport, CsvRowAlignsWithHeader) {
  const RunReport report = deterministic_report();
  const auto header = util::split_csv_line(report_csv_header());
  const std::string row_text = to_csv_row(report);
  const auto row = util::split_csv_line(row_text);
  ASSERT_EQ(header.size(), row.size());
  EXPECT_EQ(row[0], "full");
  EXPECT_EQ(row[2], "2");  // k
}

TEST(RunReport, WriteReportFilePicksFormatByExtension) {
  const RunReport report = deterministic_report();
  test::TempDir dir;

  const std::string json_path = dir.file("report.json");
  write_report_file(json_path, report);
  std::ifstream json_in{json_path};
  std::stringstream json_text;
  json_text << json_in.rdbuf();
  EXPECT_NE(json_text.str().find("\"schema\": \"glove.run_report.v10\""),
            std::string::npos);

  const std::string csv_path = dir.file("report.csv");
  write_report_file(csv_path, report);
  std::ifstream csv_in{csv_path};
  std::string header_line;
  std::getline(csv_in, header_line);
  EXPECT_EQ(header_line, report_csv_header());
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
