// schema-drift rule: the run-report surface emitted by report.cpp is a
// public contract (tools/check_streaming_report.py, bench baselines, and
// downstream dashboards parse it).  The emitted key set and the
// `glove.run_report.vN` version string are extracted from report.cpp and
// diffed against the blessed tools/lint/report_schema.vN.json:
//
//   keys changed, version unchanged  ->  FAIL: bump the schema version
//   version changed, bless stale     ->  FAIL: re-bless with
//                                        `glove_lint --update-schema`
//   both match                       ->  pass
//
// The blessed file stores the keys as a flat sorted array of the string
// literals passed to stats::Json `.set("...")`, so a rename shows up as
// one removal + one addition.  Free-form key families (the `metrics`
// object, which strategies extend at runtime) are emitted through a
// variable and therefore intentionally invisible here.

#ifndef GLOVE_TOOLS_LINT_SCHEMA_HPP
#define GLOVE_TOOLS_LINT_SCHEMA_HPP

#include <string>
#include <vector>

#include "lint.hpp"

namespace glove::lint {

struct ReportSchema {
  std::string version;             // e.g. "glove.run_report.v5"
  std::vector<std::string> keys;   // sorted, unique
};

/// Extracts the emitted schema from report.cpp source text.
ReportSchema extract_schema(const std::string& report_source);

/// Loads a blessed schema file; throws std::runtime_error (with the path)
/// on malformed input.
ReportSchema load_schema(const std::string& path);

/// Serializes a schema into the blessed-file JSON spelling.
std::string schema_to_json(const ReportSchema& schema);

/// Diffs emitted-vs-blessed and appends findings (empty = in sync).
/// `report_path` and `schema_path` are only used in messages.
void check_schema_drift(const ReportSchema& emitted,
                        const ReportSchema& blessed,
                        const std::string& report_path,
                        const std::string& schema_path,
                        std::vector<Finding>& findings);

}  // namespace glove::lint

#endif  // GLOVE_TOOLS_LINT_SCHEMA_HPP
