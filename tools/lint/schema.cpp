#include "schema.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "json.hpp"

namespace glove::lint {

namespace {

/// Decodes an ordinary C++ string literal token (quotes stripped, common
/// escapes resolved).  Raw strings are not used for report keys.
std::string literal_value(const std::string& token) {
  std::string out;
  std::size_t i = 0;
  const std::size_t n = token.size();
  if (i < n && token[i] == '"') ++i;
  while (i < n && !(token[i] == '"' && i + 1 == n)) {
    if (token[i] == '\\' && i + 1 < n) {
      const char esc = token[i + 1];
      switch (esc) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case '\\': out += '\\'; break;
        case '"': out += '"'; break;
        default: out += esc; break;
      }
      i += 2;
      continue;
    }
    out += token[i++];
  }
  return out;
}

}  // namespace

ReportSchema extract_schema(const std::string& report_source) {
  const LexResult lexed = lex(report_source);
  const std::vector<Token>& toks = lexed.tokens;
  ReportSchema schema;
  std::set<std::string> keys;

  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    // `.set("key", ...)`: the first argument names an emitted key.
    if (toks[i].kind == TokKind::kIdentifier && toks[i].text == "set" &&
        toks[i + 1].text == "(" && toks[i + 2].kind == TokKind::kString) {
      keys.insert(literal_value(toks[i + 2].text));
    }
    // The schema version literal can appear anywhere (it is the value of
    // the "schema" key).
    if (toks[i].kind == TokKind::kString) {
      const std::string value = literal_value(toks[i].text);
      if (value.rfind("glove.run_report.", 0) == 0) {
        if (!schema.version.empty() && schema.version != value) {
          throw std::runtime_error{
              "report source names two schema versions: " + schema.version +
              " and " + value};
        }
        schema.version = value;
      }
    }
  }
  schema.keys.assign(keys.begin(), keys.end());
  if (schema.version.empty()) {
    throw std::runtime_error{
        "report source carries no glove.run_report.vN version literal"};
  }
  return schema;
}

ReportSchema load_schema(const std::string& path) {
  const JsonValue doc = parse_json(read_file(path));
  if (doc.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error{path + ": schema file must be a JSON object"};
  }
  ReportSchema schema;
  const JsonValue* version = doc.find("schema_version");
  const JsonValue* keys = doc.find("keys");
  if (version == nullptr || version->kind != JsonValue::Kind::kString ||
      keys == nullptr || keys->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error{
        path + ": schema file needs string `schema_version` and array "
               "`keys`"};
  }
  schema.version = version->string;
  for (const JsonValue& key : keys->array) {
    if (key.kind != JsonValue::Kind::kString) {
      throw std::runtime_error{path + ": `keys` must hold strings"};
    }
    schema.keys.push_back(key.string);
  }
  std::sort(schema.keys.begin(), schema.keys.end());
  schema.keys.erase(std::unique(schema.keys.begin(), schema.keys.end()),
                    schema.keys.end());
  return schema;
}

std::string schema_to_json(const ReportSchema& schema) {
  std::string out = "{\n";
  out += "  \"schema_version\": \"" + schema.version + "\",\n";
  out += "  \"keys\": [\n";
  for (std::size_t i = 0; i < schema.keys.size(); ++i) {
    out += "    \"" + schema.keys[i] + "\"";
    out += i + 1 < schema.keys.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

void check_schema_drift(const ReportSchema& emitted,
                        const ReportSchema& blessed,
                        const std::string& report_path,
                        const std::string& schema_path,
                        std::vector<Finding>& findings) {
  std::vector<std::string> added;
  std::vector<std::string> removed;
  std::set_difference(emitted.keys.begin(), emitted.keys.end(),
                      blessed.keys.begin(), blessed.keys.end(),
                      std::back_inserter(added));
  std::set_difference(blessed.keys.begin(), blessed.keys.end(),
                      emitted.keys.begin(), emitted.keys.end(),
                      std::back_inserter(removed));
  const bool keys_drifted = !added.empty() || !removed.empty();

  const auto describe = [&]() {
    std::string what;
    for (const std::string& key : added) what += " +" + key;
    for (const std::string& key : removed) what += " -" + key;
    return what;
  };

  if (keys_drifted && emitted.version == blessed.version) {
    findings.push_back(
        {report_path, 0, "schema-drift",
         "run-report keys changed without a schema version bump (" +
             emitted.version + "):" + describe() +
             " — bump glove.run_report.vN in report.cpp, re-bless with "
             "`glove_lint --update-schema`, and re-bless the JSON goldens"});
  } else if (emitted.version != blessed.version) {
    findings.push_back(
        {schema_path, 0, "schema-drift",
         "report.cpp emits " + emitted.version + " but the blessed schema "
         "records " + blessed.version +
             " — re-bless with `glove_lint --update-schema`" +
             (keys_drifted ? " (key drift:" + describe() + ")" : "")});
  }
}

}  // namespace glove::lint
