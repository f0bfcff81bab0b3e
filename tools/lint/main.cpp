// glove_lint driver.
//
// Usage:
//   glove_lint [--root <repo-root>] [--compile-commands <json>]
//              [--schema <blessed.json>] [--report <report.cpp>]
//              [--no-schema] [--update-schema] [--verbose] [files...]
//
// With no explicit files, lints every .cpp/.hpp under src/, tools/,
// bench/, and examples/ (union of a directory walk and the translation
// units named by compile_commands.json, so generated or out-of-tree TUs
// are covered too).  Exit status: 0 clean, 1 findings, 2 usage/io error.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "json.hpp"
#include "lint.hpp"
#include "schema.hpp"

namespace fs = std::filesystem;
using glove::lint::AliasTable;
using glove::lint::Finding;
using glove::lint::JsonValue;
using glove::lint::ReportSchema;

namespace {

struct Options {
  std::string root = ".";
  std::string compile_commands;
  std::string schema_path;
  std::string report_path;
  bool run_schema_check = true;
  bool update_schema = false;
  bool verbose = false;
  std::vector<std::string> files;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root DIR] [--compile-commands JSON] [--schema JSON]\n"
               "       [--report REPORT_CPP] [--no-schema] "
               "[--update-schema]\n"
               "       [--verbose] [files...]\n";
  return 2;
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

/// Normalizes `path` to a root-relative, forward-slash spelling; returns
/// an empty string for paths outside the root.
std::string relative_to_root(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  const fs::path canonical = fs::weakly_canonical(path, ec);
  const fs::path canonical_root = fs::weakly_canonical(root, ec);
  const fs::path rel = canonical.lexically_relative(canonical_root);
  if (rel.empty() || rel.native().rfind("..", 0) == 0) return "";
  return rel.generic_string();
}

/// The directories the lint rules sweep.  tests/ is deliberately out:
/// fixtures under tests/lint/ must be able to hold known-bad code.
bool in_linted_tree(const std::string& rel) {
  return rel.rfind("src/", 0) == 0 || rel.rfind("tools/", 0) == 0 ||
         rel.rfind("bench/", 0) == 0 || rel.rfind("examples/", 0) == 0;
}

std::vector<std::string> discover_files(const Options& opt) {
  std::set<std::string> files;
  const fs::path root{opt.root};
  for (const char* dir : {"src", "tools", "bench", "examples"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        const std::string rel = relative_to_root(entry.path(), root);
        if (!rel.empty()) files.insert(rel);
      }
    }
  }
  if (!opt.compile_commands.empty()) {
    const JsonValue doc =
        glove::lint::parse_json(glove::lint::read_file(opt.compile_commands));
    for (const JsonValue& entry : doc.array) {
      const JsonValue* file = entry.find("file");
      if (file == nullptr || file->kind != JsonValue::Kind::kString) continue;
      const std::string rel = relative_to_root(file->string, root);
      if (!rel.empty() && in_linted_tree(rel) && lintable(rel)) {
        files.insert(rel);
      }
    }
  }
  return {files.begin(), files.end()};
}

/// Picks the highest-versioned tools/lint/report_schema.v*.json.
std::string default_schema_path(const fs::path& root) {
  const fs::path dir = root / "tools" / "lint";
  std::string best;
  long best_version = -1;
  if (!fs::exists(dir)) return best;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("report_schema.v", 0) != 0) continue;
    const std::size_t dot = name.find(".json");
    if (dot == std::string::npos) continue;
    const std::string digits =
        name.substr(std::char_traits<char>::length("report_schema.v"),
                    dot - std::char_traits<char>::length("report_schema.v"));
    const long version = std::atol(digits.c_str());
    if (version > best_version) {
      best_version = version;
      best = entry.path().string();
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      opt.root = value();
    } else if (arg == "--compile-commands") {
      opt.compile_commands = value();
    } else if (arg == "--schema") {
      opt.schema_path = value();
    } else if (arg == "--report") {
      opt.report_path = value();
    } else if (arg == "--no-schema") {
      opt.run_schema_check = false;
    } else if (arg == "--update-schema") {
      opt.update_schema = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(argv[0]);
    } else {
      opt.files.push_back(arg);
    }
  }

  try {
    const fs::path root{opt.root};
    if (opt.report_path.empty()) {
      opt.report_path = (root / "src/glove/api/report.cpp").string();
    }
    if (opt.schema_path.empty()) opt.schema_path = default_schema_path(root);

    // --update-schema re-blesses and exits.
    if (opt.update_schema) {
      const ReportSchema emitted = glove::lint::extract_schema(
          glove::lint::read_file(opt.report_path));
      const std::string version_tag =
          emitted.version.substr(emitted.version.rfind('.') + 1);
      const fs::path target =
          root / "tools" / "lint" /
          ("report_schema." + version_tag + ".json");
      std::ofstream out{target};
      out << glove::lint::schema_to_json(emitted);
      if (!out) {
        std::cerr << "failed writing " << target.string() << "\n";
        return 2;
      }
      std::cout << "blessed " << target.string() << " ("
                << emitted.keys.size() << " keys, " << emitted.version
                << ")\n";
      return 0;
    }

    std::vector<std::string> files = opt.files;
    if (files.empty()) files = discover_files(opt);

    // Pass 1: project-wide unordered-container aliases, so an alias
    // declared in one header is recognised at use sites everywhere.
    AliasTable aliases;
    std::vector<std::pair<std::string, glove::lint::LexResult>> lexed;
    lexed.reserve(files.size());
    for (const std::string& file : files) {
      const fs::path disk = fs::path(file).is_absolute()
                                ? fs::path(file)
                                : root / file;
      std::string rel = relative_to_root(disk, root);
      if (rel.empty()) rel = file;
      lexed.emplace_back(rel, glove::lint::lex(glove::lint::read_file(
                                  disk.string())));
      aliases.collect(lexed.back().second);
    }

    // Pass 2: rules.
    std::vector<Finding> findings;
    for (const auto& [rel, lex_result] : lexed) {
      std::vector<Finding> file_findings =
          glove::lint::lint_tokens(lex_result, rel, aliases);
      findings.insert(findings.end(), file_findings.begin(),
                      file_findings.end());
      if (opt.verbose) {
        std::cerr << "linted " << rel << " (" << file_findings.size()
                  << " findings)\n";
      }
    }

    // Schema drift.
    if (opt.run_schema_check) {
      if (opt.schema_path.empty()) {
        std::cerr << "no blessed schema file found under tools/lint/ "
                     "(pass --schema or --no-schema)\n";
        return 2;
      }
      const ReportSchema emitted = glove::lint::extract_schema(
          glove::lint::read_file(opt.report_path));
      const ReportSchema blessed = glove::lint::load_schema(opt.schema_path);
      glove::lint::check_schema_drift(emitted, blessed, opt.report_path,
                                      opt.schema_path, findings);
    }

    for (const Finding& f : findings) {
      std::cerr << f.file << ":" << f.line << ": error: [" << f.rule << "] "
                << f.message << "\n";
    }
    if (findings.empty()) {
      std::cout << "glove_lint: " << lexed.size() << " files clean\n";
      return 0;
    }
    std::cerr << "glove_lint: " << findings.size() << " finding(s) in "
              << lexed.size() << " files\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "glove_lint: " << e.what() << "\n";
    return 2;
  }
}
