// glove_lint: project-invariant static analysis for the GLOVE tree.
//
// The repo's load-bearing guarantee is byte-identical output across
// strategies, worker counts, budgets, and dataset formats.  These rules
// enforce, at the source level, the conventions that guarantee rests on:
//
//   unordered-iteration  Iterating an unordered container in the layers
//                        that feed output or report emission
//                        (src/glove/{api,shard,cdr,serve,stats}) ties
//                        results to libstdc++ hash order.  Prove a site
//                        order-insensitive and annotate it, or fix it.
//   raw-rng              rand()/srand(), std::random_device, time-seeded
//                        engines, and pointer-value ordering are hidden
//                        nondeterminism.  All randomness flows through
//                        util/rng.hpp's seeded generators.
//   throw-context        Every throw under src/glove/cdr/ carries the
//                        offending file path (the PR 4-6 convention), so
//                        io errors from deep inside a streaming run stay
//                        actionable.
//   schema-drift         The run-report key set emitted by report.cpp
//                        must match the blessed schema file; any key
//                        change requires a glove.run_report.vN bump and
//                        a re-bless (see schema.hpp).
//   obs-naming           Span/metric name literals (GLOVE_SPAN,
//                        GLOVE_SPAN_NAMED, obs::counter/gauge/histogram)
//                        must be lowercase dotted words ([a-z0-9_.]+)
//                        and unique within a translation unit, so every
//                        trace or report line maps to one source site.
//
// Escape hatch: a comment containing the marker (the project name, a
// hyphen, "lint", then a colon) followed by an allow-clause — the word
// "allow", an open paren, the rule name, a comma, a mandatory reason,
// and a close paren — on the finding's line, the line above, or any line
// of the offending statement.  See tools/lint/README.md for examples;
// the spelling is paraphrased here so the lint does not read its own
// documentation as an annotation.
//
// The analysis is a tokenizer pass (comments/strings/raw strings handled,
// template arguments matched structurally), which keeps the tool
// dependency-free and fast.

#ifndef GLOVE_TOOLS_LINT_LINT_HPP
#define GLOVE_TOOLS_LINT_LINT_HPP

#include <string>
#include <vector>

namespace glove::lint {

enum class TokKind {
  kIdentifier,
  kNumber,
  kString,
  kChar,
  kPunct,
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
};

struct Comment {
  std::string text;
  int line = 0;  // line the comment starts on
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

/// Tokenizes C++ source: skips preprocessor directives (with continuation
/// lines), decodes ordinary and raw string literals, and collects comments
/// separately so annotations stay visible to the rules.
LexResult lex(const std::string& source);

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// One parsed allow-annotation (see the escape-hatch note above).
struct Annotation {
  std::string rule;
  std::string reason;
  int line = 0;      // line the annotation's comment starts on
  int end_line = 0;  // line the annotation's comment ends on
};

/// Extracts annotations from comments.  Malformed annotations (missing
/// reason, unknown spelling) are reported as `bad-annotation` findings.
std::vector<Annotation> parse_annotations(const std::vector<Comment>& comments,
                                          const std::string& file,
                                          std::vector<Finding>& findings);

struct FileClass {
  bool emission_layer = false;  // src/glove/{api,shard,cdr,serve,stats}
  bool cdr_layer = false;       // src/glove/cdr
  bool rng_exempt = false;      // util/rng.hpp
};

/// Classifies a repo-relative path for rule applicability.
FileClass classify_path(const std::string& relative_path);

/// Type aliases that resolve to unordered containers, collected in a
/// global pre-pass so `AntennaTable table;` is seen as unordered even
/// in another translation unit.
struct AliasTable {
  std::vector<std::string> unordered_aliases;

  [[nodiscard]] bool is_unordered_name(const std::string& name) const;
  void collect(const LexResult& lexed);
};

/// Runs every token-level rule over one lexed file.  `relative_path` is
/// used for classification and reporting.
std::vector<Finding> lint_tokens(const LexResult& lexed,
                                 const std::string& relative_path,
                                 const AliasTable& aliases);

/// Convenience: read, lex, and lint one file on disk.  `relative_path`
/// controls rule applicability; `disk_path` is where the bytes live.
std::vector<Finding> lint_file(const std::string& disk_path,
                               const std::string& relative_path,
                               const AliasTable& aliases);

/// Reads a whole file; throws std::runtime_error (with the path) on
/// failure.
std::string read_file(const std::string& path);

}  // namespace glove::lint

#endif  // GLOVE_TOOLS_LINT_LINT_HPP
