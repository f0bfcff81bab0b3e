// Fixture tests for the glove_lint token rules: each known-bad snippet in
// tests/lint/fixtures must fire its rule, and the clean control must stay
// silent.  The fixtures are .txt so the formatting and lint gates skip
// them; the *linted-as* path passed alongside controls rule applicability.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using glove::lint::AliasTable;
using glove::lint::Finding;

std::string fixture(const std::string& name) {
  return std::string{GLOVE_LINT_FIXTURE_DIR} + "/" + name;
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  const std::string& linted_as) {
  const AliasTable aliases;  // fixtures spell container types out
  return glove::lint::lint_file(fixture(name), linted_as, aliases);
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(LintFixtures, UnorderedIterationFiresInEmissionLayer) {
  const auto findings =
      lint_fixture("unordered_bad.txt", "src/glove/api/fixture.cpp");
  // One range-for over a map, one over a set, one explicit .begin() walk.
  EXPECT_EQ(count_rule(findings, "unordered-iteration"), 3u);
  EXPECT_EQ(count_rule(findings, "bad-annotation"), 0u);
}

TEST(LintFixtures, UnorderedIterationSilentOutsideEmissionLayer) {
  // The same code linted as analysis/ (not an emission layer) is not the
  // rule's business.
  const auto findings =
      lint_fixture("unordered_bad.txt", "src/glove/analysis/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iteration"), 0u);
}

TEST(LintFixtures, AnnotationSuppressesUnorderedIteration) {
  const auto findings =
      lint_fixture("unordered_annotated.txt", "src/glove/api/fixture.cpp");
  EXPECT_EQ(findings.size(), 0u)
      << (findings.empty() ? "" : findings.front().message);
}

TEST(LintFixtures, ThrowContextFiresUnderCdr) {
  const auto findings =
      lint_fixture("throw_bad.txt", "src/glove/cdr/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "throw-context"), 2u);
}

TEST(LintFixtures, ThrowContextScopedToCdrLayer) {
  // The same throws outside src/glove/cdr/ are fine: the convention is
  // specifically about io errors naming their file.
  const auto findings =
      lint_fixture("throw_bad.txt", "src/glove/core/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "throw-context"), 0u);
}

TEST(LintFixtures, RawRngFiresEverywhereButRngHeader) {
  const auto findings =
      lint_fixture("rng_bad.txt", "src/glove/synth/fixture.cpp");
  // srand, time-seed, random_device, rand, and two pointer-value casts.
  EXPECT_GE(count_rule(findings, "raw-rng"), 4u);
}

TEST(LintFixtures, RawRngExemptInRngHeader) {
  const auto findings =
      lint_fixture("rng_bad.txt", "src/glove/util/rng.hpp");
  EXPECT_EQ(count_rule(findings, "raw-rng"), 0u);
}

TEST(LintFixtures, MalformedAnnotationsAreFindings) {
  const auto findings =
      lint_fixture("bad_annotation.txt", "src/glove/api/fixture.cpp");
  // Unknown rule, missing reason, and blank reason.
  EXPECT_EQ(count_rule(findings, "bad-annotation"), 3u);
}

TEST(LintFixtures, ObsNamingFlagsBadAndDuplicateNames) {
  const auto findings =
      lint_fixture("obs_bad.txt", "src/glove/api/fixture.cpp");
  // Uppercase, space, hyphen, empty = 4 convention violations; one
  // duplicated span name and one duplicated counter name = 2 collisions.
  // The non-literal registration at the end must not be flagged.
  EXPECT_EQ(count_rule(findings, "obs-naming"), 6u);
}

TEST(LintFixtures, ObsNamingAppliesOutsideEmissionLayersToo) {
  // Unlike the determinism rules the naming convention is tree-wide:
  // bench and example binaries feed the same traces.
  const auto findings = lint_fixture("obs_bad.txt", "bench/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "obs-naming"), 6u);
}

TEST(LintFixtures, ObsNamingFiresOnServeLayerLiterals) {
  // The serve daemon's spans and counters feed the same traces and
  // reports; a bad literal under src/glove/serve/ must not slip through.
  const auto findings =
      lint_fixture("serve_obs_bad.txt", "src/glove/serve/fixture.cpp");
  // Uppercase span + spaced counter name + one duplicated span literal.
  EXPECT_EQ(count_rule(findings, "obs-naming"), 3u);
}

TEST(LintFixtures, UnorderedIterationFiresInServeLayer) {
  // serve/ is an emission layer: snapshot publication iterates state that
  // must stay deterministically ordered.
  const auto findings =
      lint_fixture("unordered_bad.txt", "src/glove/serve/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iteration"), 3u);
}

TEST(LintFixtures, UnorderedIterationFiresInShardLayer) {
  // shard/ plans the units of a run and delivers their groups in unit
  // order; an unordered walk there would reorder the published groups.
  const auto findings =
      lint_fixture("unordered_bad.txt", "src/glove/shard/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iteration"), 3u);
}

TEST(LintFixtures, ObsNamingSilentOnConformingNames) {
  const auto findings =
      lint_fixture("obs_clean.txt", "src/glove/shard/fixture.cpp");
  EXPECT_EQ(findings.size(), 0u)
      << (findings.empty() ? "" : findings.front().message);
}

TEST(LintFixtures, CleanControlIsSilent) {
  const auto findings = lint_fixture("clean.txt", "src/glove/cdr/fixture.cpp");
  EXPECT_EQ(findings.size(), 0u)
      << (findings.empty() ? "" : findings.front().message);
}

TEST(LintFixtures, FindingsCarryFileLineAndRule) {
  const auto findings =
      lint_fixture("throw_bad.txt", "src/glove/cdr/fixture.cpp");
  ASSERT_FALSE(findings.empty());
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, "src/glove/cdr/fixture.cpp");
    EXPECT_GT(f.line, 0);
    EXPECT_FALSE(f.message.empty());
  }
}

TEST(LintAliases, AliasOfUnorderedContainerIsTracked) {
  const std::string source =
      "#include <unordered_map>\n"
      "using Table = std::unordered_map<int, double>;\n"
      "double sum(const Table& t) {\n"
      "  double s = 0.0;\n"
      "  for (const auto& [k, v] : t) s += v;\n"
      "  return s;\n"
      "}\n";
  const auto lexed = glove::lint::lex(source);
  AliasTable aliases;
  aliases.collect(lexed);
  EXPECT_TRUE(aliases.is_unordered_name("Table"));
  const auto findings =
      glove::lint::lint_tokens(lexed, "src/glove/api/alias.cpp", aliases);
  EXPECT_EQ(count_rule(findings, "unordered-iteration"), 1u);
}

}  // namespace
