// Self-audit: the real tree must be glove_lint-clean, and the checked-in
// report_schema.vN.json must match what report.cpp actually emits.  This
// is the same invocation CI's lint job runs; keeping it in ctest means a
// drifted annotation or schema fails locally before a push.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "lint.hpp"
#include "schema.hpp"

namespace {

TEST(SelfAudit, TreeIsLintClean) {
  const std::string command =
      std::string{GLOVE_LINT_BINARY} + " --root " + GLOVE_SOURCE_DIR;
  const int status = std::system(command.c_str());
  EXPECT_EQ(status, 0) << "glove_lint reported findings; run `" << command
                       << "` for the list";
}

TEST(SelfAudit, BlessedSchemaMatchesReportCpp) {
  const std::string root{GLOVE_SOURCE_DIR};
  const auto emitted = glove::lint::extract_schema(
      glove::lint::read_file(root + "/src/glove/api/report.cpp"));
  const auto blessed = glove::lint::load_schema(
      root + "/tools/lint/report_schema.v10.json");
  std::vector<glove::lint::Finding> findings;
  glove::lint::check_schema_drift(emitted, blessed, "report.cpp",
                                  "report_schema.v10.json", findings);
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : findings.front().message);
}

}  // namespace
