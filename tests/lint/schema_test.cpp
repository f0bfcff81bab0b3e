// Schema-drift rule tests: adding, removing, or renaming a run-report key
// without bumping glove.run_report.vN must fail; a matching bless must
// pass; and the JSON round-trip through the blessed-file spelling must be
// lossless.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "schema.hpp"

namespace {

using glove::lint::check_schema_drift;
using glove::lint::extract_schema;
using glove::lint::Finding;
using glove::lint::ReportSchema;

// A miniature report.cpp: the extractor only cares about `.set("key"`
// and the glove.run_report.vN literal.
const char* kBaseReport = R"cpp(
#include "glove/stats/stats.hpp"

namespace glove::api {

stats::Json report_json(const RunReport& report) {
  return stats::Json::object()
      .set("schema", std::string{"glove.run_report.v5"})
      .set("dataset", report.dataset)
      .set("strategy", report.strategy)
      .set("k", static_cast<std::uint64_t>(report.k));
}

}  // namespace glove::api
)cpp";

std::string with_extra_key(const std::string& base) {
  const std::string anchor = ".set(\"k\",";
  const auto pos = base.find(anchor);
  return base.substr(0, pos) + ".set(\"surprise\", 1)\n      " +
         base.substr(pos);
}

std::vector<Finding> drift(const ReportSchema& emitted,
                           const ReportSchema& blessed) {
  std::vector<Finding> findings;
  check_schema_drift(emitted, blessed, "report.cpp", "schema.json", findings);
  return findings;
}

TEST(SchemaExtract, FindsKeysAndVersion) {
  const ReportSchema schema = extract_schema(kBaseReport);
  EXPECT_EQ(schema.version, "glove.run_report.v5");
  const std::vector<std::string> expected{"dataset", "k", "schema",
                                          "strategy"};
  EXPECT_EQ(schema.keys, expected);
}

TEST(SchemaExtract, MissingVersionThrows) {
  EXPECT_THROW(extract_schema("int x = 0;"), std::runtime_error);
}

TEST(SchemaDrift, InSyncIsClean) {
  const ReportSchema schema = extract_schema(kBaseReport);
  EXPECT_TRUE(drift(schema, schema).empty());
}

TEST(SchemaDrift, AddedKeyWithoutBumpFails) {
  const ReportSchema blessed = extract_schema(kBaseReport);
  const ReportSchema emitted =
      extract_schema(with_extra_key(kBaseReport));
  const auto findings = drift(emitted, blessed);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "schema-drift");
  EXPECT_NE(findings[0].message.find("surprise"), std::string::npos);
  EXPECT_NE(findings[0].message.find("bump"), std::string::npos);
}

TEST(SchemaDrift, AddedKeyWithBumpStillNeedsRebless) {
  // Bumping the version without re-blessing the JSON must also fail —
  // but pointing at the bless step, not at the key diff.
  std::string bumped = with_extra_key(kBaseReport);
  const auto pos = bumped.find("glove.run_report.v5");
  bumped.replace(pos, std::string{"glove.run_report.v5"}.size(),
                 "glove.run_report.v6");
  const ReportSchema blessed = extract_schema(kBaseReport);
  const ReportSchema emitted = extract_schema(bumped);
  const auto findings = drift(emitted, blessed);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("--update-schema"), std::string::npos);
}

TEST(SchemaDrift, RemovedKeyWithoutBumpFails) {
  const ReportSchema blessed = extract_schema(with_extra_key(kBaseReport));
  const ReportSchema emitted = extract_schema(kBaseReport);
  EXPECT_EQ(drift(emitted, blessed).size(), 1u);
}

TEST(SchemaJson, RoundTripsThroughBlessedSpelling) {
  const ReportSchema schema = extract_schema(kBaseReport);
  const std::string json = glove::lint::schema_to_json(schema);
  // Write-parse-compare through a temp file exercises load_schema's
  // validation too.
  const std::string path =
      testing::TempDir() + "/glove_lint_schema_roundtrip.json";
  {
    std::ofstream out{path};
    out << json;
  }
  const ReportSchema loaded = glove::lint::load_schema(path);
  EXPECT_EQ(loaded.version, schema.version);
  EXPECT_EQ(loaded.keys, schema.keys);
}

}  // namespace
