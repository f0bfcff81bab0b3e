#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace glove::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot open for reading: " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw std::runtime_error{"failed reading: " + path};
  return buffer.str();
}

LexResult lex(const std::string& src) {
  LexResult out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;

  const auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k, ++i) {
      if (src[i] == '\n') ++line;
    }
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n' || c == ' ' || c == '\t' || c == '\r' || c == '\f' ||
        c == '\v') {
      advance(1);
      continue;
    }
    // Preprocessor directive: skip to end of line, honouring continuations.
    if (c == '#') {
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          advance(2);
          continue;
        }
        if (src[i] == '\n') break;
        advance(1);
      }
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const int start_line = line;
      std::size_t j = i;
      while (j < n && src[j] != '\n') ++j;
      out.comments.push_back({src.substr(i, j - i), start_line});
      advance(j - i);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) ++j;
      const std::size_t end = (j + 1 < n) ? j + 2 : n;
      out.comments.push_back({src.substr(i, end - i), start_line});
      advance(end - i);
      continue;
    }
    // Raw string literal, with optional encoding prefix.  Must be checked
    // before identifiers so R"(...)" content (which may contain quotes and
    // comment markers) is consumed verbatim.
    if ((i == 0 || !ident_char(src[i - 1]))) {
      static const char* kRawPrefixes[] = {"R\"", "u8R\"", "uR\"", "UR\"",
                                           "LR\""};
      std::size_t prefix_len = 0;
      for (const char* p : kRawPrefixes) {
        const std::size_t len = std::char_traits<char>::length(p);
        if (src.compare(i, len, p) == 0) {
          prefix_len = len;
          break;
        }
      }
      if (prefix_len != 0) {
        std::size_t q = i + prefix_len;
        std::string delim;
        while (q < n && src[q] != '(') delim += src[q++];
        const std::string closer = ")" + delim + "\"";
        const std::size_t close = src.find(closer, q);
        const std::size_t end =
            close == std::string::npos ? n : close + closer.size();
        const int start_line = line;
        out.tokens.push_back(
            {TokKind::kString, src.substr(i, end - i), start_line});
        advance(end - i);
        continue;
      }
    }
    // Ordinary string / char literal.  Encoding prefixes (u8, L, ...) lex
    // as a separate identifier token just before the literal, which is
    // harmless for every rule here.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      const std::size_t end = (j < n) ? j + 1 : n;
      const int start_line = line;
      out.tokens.push_back({quote == '"' ? TokKind::kString : TokKind::kChar,
                            src.substr(i, end - i), start_line});
      advance(end - i);
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out.tokens.push_back({TokKind::kIdentifier, src.substr(i, j - i), line});
      advance(j - i);
      continue;
    }
    // Number (we only need to not confuse it with anything else).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P')))) {
        ++j;
      }
      out.tokens.push_back({TokKind::kNumber, src.substr(i, j - i), line});
      advance(j - i);
      continue;
    }
    // Punctuation: longest useful multi-char tokens first.
    {
      static const char* kMulti[] = {"::", "->", "<<=", ">>=", "<=>", "<<",
                                     ">>", "<=", ">=", "==", "!=", "&&",
                                     "||", "+=", "-=", "*=", "/=", "..."};
      std::string text{c};
      for (const char* m : kMulti) {
        const std::size_t len = std::char_traits<char>::length(m);
        if (src.compare(i, len, m) == 0) {
          text.assign(m, len);
          break;
        }
      }
      out.tokens.push_back({TokKind::kPunct, text, line});
      advance(text.size());
    }
  }
  return out;
}

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

const std::set<std::string>& known_rules() {
  static const std::set<std::string> kRules{
      "unordered-iteration", "raw-rng", "throw-context", "schema-drift",
      "obs-naming"};
  return kRules;
}

}  // namespace

std::vector<Annotation> parse_annotations(const std::vector<Comment>& comments,
                                          const std::string& file,
                                          std::vector<Finding>& findings) {
  // Annotations routinely wrap at the 80-column limit, which the lexer
  // sees as several consecutive `//` comments.  Merge runs of adjacent
  // line comments into one logical block (joined with spaces, `//`
  // markers stripped) so a wrapped allow(...) parses whole.
  std::vector<Comment> merged;
  for (const Comment& comment : comments) {
    const bool line_comment = comment.text.rfind("//", 0) == 0;
    std::string body = line_comment ? comment.text.substr(2) : comment.text;
    if (line_comment && !merged.empty() &&
        merged.back().text.rfind("//", 0) == 0) {
      const int prev_end =
          merged.back().line +
          static_cast<int>(std::count(merged.back().text.begin(),
                                      merged.back().text.end(), '\n'));
      if (comment.line == prev_end + 1) {
        merged.back().text += "\n" + body;
        continue;
      }
    }
    merged.push_back(comment);
  }

  std::vector<Annotation> annotations;
  for (const Comment& comment : merged) {
    std::size_t pos = 0;
    while ((pos = comment.text.find("glove-lint:", pos)) !=
           std::string::npos) {
      pos += std::char_traits<char>::length("glove-lint:");
      const std::size_t allow = comment.text.find("allow(", pos);
      if (allow == std::string::npos) {
        findings.push_back({file, comment.line, "bad-annotation",
                            "glove-lint marker without allow(<rule>, "
                            "<reason>)"});
        break;
      }
      const std::size_t open = allow + std::char_traits<char>::length("allow(");
      // Balance parentheses so reasons may themselves contain parens.
      std::size_t close = std::string::npos;
      std::size_t comma = std::string::npos;
      int depth = 1;
      for (std::size_t k = open; k < comment.text.size(); ++k) {
        const char ch = comment.text[k];
        if (ch == '(') {
          ++depth;
        } else if (ch == ')') {
          if (--depth == 0) {
            close = k;
            break;
          }
        } else if (ch == ',' && depth == 1 &&
                   comma == std::string::npos) {
          comma = k;
        }
      }
      if (close == std::string::npos || comma == std::string::npos) {
        findings.push_back({file, comment.line, "bad-annotation",
                            "allow() needs both a rule and a reason: "
                            "allow(<rule>, <reason>)"});
        break;
      }
      Annotation a;
      a.rule = trim(comment.text.substr(open, comma - open));
      a.reason = trim(comment.text.substr(comma + 1, close - comma - 1));
      a.line = comment.line;
      a.end_line =
          comment.line +
          static_cast<int>(std::count(comment.text.begin(),
                                      comment.text.end(), '\n'));
      if (known_rules().count(a.rule) == 0) {
        findings.push_back({file, comment.line, "bad-annotation",
                            "allow() names unknown rule '" + a.rule + "'"});
      } else if (a.reason.empty()) {
        findings.push_back({file, comment.line, "bad-annotation",
                            "allow(" + a.rule +
                                ") needs a non-empty reason"});
      } else {
        annotations.push_back(std::move(a));
      }
      pos = close == std::string::npos ? comment.text.size() : close;
    }
  }
  return annotations;
}

FileClass classify_path(const std::string& path) {
  FileClass cls;
  const auto under = [&](const char* prefix) {
    return path.rfind(prefix, 0) == 0;
  };
  cls.emission_layer = under("src/glove/api/") || under("src/glove/shard/") ||
                       under("src/glove/cdr/") || under("src/glove/serve/") ||
                       under("src/glove/stats/");
  cls.cdr_layer = under("src/glove/cdr/");
  cls.rng_exempt = path == "src/glove/util/rng.hpp";
  return cls;
}

bool AliasTable::is_unordered_name(const std::string& name) const {
  if (name == "unordered_map" || name == "unordered_set" ||
      name == "unordered_multimap" || name == "unordered_multiset") {
    return true;
  }
  return std::find(unordered_aliases.begin(), unordered_aliases.end(), name) !=
         unordered_aliases.end();
}

void AliasTable::collect(const LexResult& lexed) {
  const std::vector<Token>& toks = lexed.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    // using Alias = ... unordered_xxx ... ;
    if (toks[i].kind == TokKind::kIdentifier && toks[i].text == "using" &&
        toks[i + 1].kind == TokKind::kIdentifier &&
        toks[i + 2].text == "=") {
      for (std::size_t j = i + 3;
           j < toks.size() && toks[j].text != ";"; ++j) {
        if (toks[j].kind == TokKind::kIdentifier &&
            is_unordered_name(toks[j].text)) {
          unordered_aliases.push_back(toks[i + 1].text);
          break;
        }
      }
    }
    // typedef ... unordered_xxx ... Alias ;
    if (toks[i].kind == TokKind::kIdentifier && toks[i].text == "typedef") {
      bool unordered = false;
      std::size_t j = i + 1;
      for (; j < toks.size() && toks[j].text != ";"; ++j) {
        if (toks[j].kind == TokKind::kIdentifier &&
            is_unordered_name(toks[j].text)) {
          unordered = true;
        }
      }
      if (unordered && j > i + 1 && toks[j - 1].kind == TokKind::kIdentifier) {
        unordered_aliases.push_back(toks[j - 1].text);
      }
    }
  }
}

namespace {

/// Index of the token after a balanced `<...>` template argument list
/// starting at `open` (which must point at `<`).  Treats `>>` as two
/// closers, which is correct inside template argument lists.
std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t open) {
  int depth = 0;
  std::size_t i = open;
  while (i < toks.size()) {
    const std::string& t = toks[i].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return i + 1;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (t == ";" || t == "{") {
      break;  // malformed; bail out
    }
    ++i;
  }
  return i;
}

struct UnorderedDecls {
  std::set<std::string> variables;  // names declared with an unordered type
  std::set<std::string> functions;  // names returning an unordered type
};

UnorderedDecls collect_unordered_decls(const std::vector<Token>& toks,
                                       const AliasTable& aliases) {
  UnorderedDecls decls;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        !aliases.is_unordered_name(toks[i].text)) {
      continue;
    }
    // Skip the alias-definition spelling itself (`using X = unordered...`).
    if (i >= 2 && toks[i - 1].text == "=" &&
        i >= 3 && toks[i - 3].text == "using") {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") {
      j = skip_template_args(toks, j);
    }
    // Skip cv/ref/pointer decorations between type and declarator.
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const" || toks[j].text == "&&")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != TokKind::kIdentifier) continue;
    const std::string& name = toks[j].text;
    const std::string& next = j + 1 < toks.size() ? toks[j + 1].text : "";
    if (next == "(") {
      decls.functions.insert(name);
    } else {
      // Parameter, member, or local: `;`, `{`, `=`, `,`, `)` all mean the
      // declarator just ended.
      decls.variables.insert(name);
    }
  }
  return decls;
}

bool is_suppressed(const std::vector<Annotation>& annotations,
                   const std::string& rule, int first_line, int last_line) {
  // An annotation applies when its comment touches the statement: it ends
  // on the line above (or within) the statement, and starts no later than
  // the statement's last line.
  return std::any_of(annotations.begin(), annotations.end(),
                     [&](const Annotation& a) {
                       return a.rule == rule &&
                              a.end_line >= first_line - 1 &&
                              a.line <= last_line;
                     });
}

void check_unordered_iteration(const std::vector<Token>& toks,
                               const std::string& file,
                               const UnorderedDecls& decls,
                               const std::vector<Annotation>& annotations,
                               std::vector<Finding>& findings) {
  const auto is_unordered_expr_token = [&](const Token& t) {
    return t.kind == TokKind::kIdentifier &&
           (decls.variables.count(t.text) != 0 ||
            decls.functions.count(t.text) != 0);
  };

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    // Range-for: for ( init? decl : range-expr )
    if (toks[i].kind == TokKind::kIdentifier && toks[i].text == "for" &&
        toks[i + 1].text == "(") {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        const std::string& t = toks[j].text;
        if (t == "(" || t == "[" || t == "{") ++depth;
        if (t == ")" || t == "]" || t == "}") {
          if (--depth == 0) {
            close = j;
            break;
          }
        }
        if (t == ":" && depth == 1 && colon == 0) colon = j;
      }
      if (colon == 0 || close == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (is_unordered_expr_token(toks[j])) {
          if (!is_suppressed(annotations, "unordered-iteration",
                             toks[i].line, toks[close].line)) {
            findings.push_back(
                {file, toks[i].line, "unordered-iteration",
                 "range-for over unordered container '" + toks[j].text +
                     "' in an emission layer: iteration order is hash "
                     "order; sort first, or annotate with a proof of "
                     "order-insensitivity"});
          }
          break;
        }
      }
      continue;
    }
    // Iterator access: <unordered>.begin() / .cbegin().  `.end()` alone is
    // not flagged — `it != m.end()` after a find() is a lookup, and any
    // real traversal needs a begin.
    if (toks[i].text == "." && i + 1 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdentifier &&
        (toks[i + 1].text == "begin" || toks[i + 1].text == "cbegin") &&
        i >= 1 && is_unordered_expr_token(toks[i - 1])) {
      if (!is_suppressed(annotations, "unordered-iteration",
                         toks[i - 1].line, toks[i + 1].line)) {
        findings.push_back(
            {file, toks[i].line, "unordered-iteration",
             "iterator over unordered container '" + toks[i - 1].text +
                 "' in an emission layer: iteration order is hash order"});
      }
    }
  }
}

void check_raw_rng(const std::vector<Token>& toks, const std::string& file,
                   const std::vector<Annotation>& annotations,
                   std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    const std::string& t = toks[i].text;
    const std::string& next = i + 1 < toks.size() ? toks[i + 1].text : "";
    const auto flag = [&](const std::string& message) {
      if (!is_suppressed(annotations, "raw-rng", toks[i].line,
                         toks[i].line)) {
        findings.push_back({file, toks[i].line, "raw-rng", message});
      }
    };
    if ((t == "rand" || t == "srand") && next == "(") {
      flag("'" + t +
           "' is process-global and unseeded per run; draw from "
           "util/rng.hpp instead");
    } else if (t == "random_device") {
      flag("std::random_device is nondeterministic; derive seeds via "
           "util/rng.hpp (SplitMix64) instead");
    } else if (t == "time" && next == "(" && i + 2 < toks.size() &&
               (toks[i + 2].text == "nullptr" || toks[i + 2].text == "NULL" ||
                toks[i + 2].text == "0")) {
      flag("time(...) as an entropy source makes runs unreproducible; "
           "thread an explicit seed through util/rng.hpp");
    } else if (t == "reinterpret_cast" && next == "<" && i + 2 < toks.size() &&
               (toks[i + 2].text == "uintptr_t" ||
                toks[i + 2].text == "intptr_t" ||
                (toks[i + 2].text == "std" && i + 4 < toks.size() &&
                 (toks[i + 4].text == "uintptr_t" ||
                  toks[i + 4].text == "intptr_t")))) {
      flag("pointer-value ordering is allocation-order dependent; key on "
           "stable ids instead");
    }
  }
}

void check_throw_context(const std::vector<Token>& toks,
                         const std::string& file,
                         const std::vector<Annotation>& annotations,
                         std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier || toks[i].text != "throw") {
      continue;
    }
    if (i + 1 < toks.size() && toks[i + 1].text == ";") continue;  // rethrow
    bool has_context = false;
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      const std::string& t = toks[j].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t == ";" && depth <= 0) break;
      if (toks[j].kind == TokKind::kIdentifier &&
          (t == "path" || t == "path_" || t == "context" ||
           t == "context_")) {
        has_context = true;
      }
    }
    const int last_line = j < toks.size() ? toks[j].line : toks[i].line;
    if (!has_context &&
        !is_suppressed(annotations, "throw-context", toks[i].line,
                       last_line)) {
      findings.push_back(
          {file, toks[i].line, "throw-context",
           "throw under src/glove/cdr/ without file-path context: include "
           "the offending path (or a path-prefixed context string) in the "
           "message, or annotate why none applies"});
    }
    i = j;
  }
}

void check_obs_naming(const std::vector<Token>& toks, const std::string& file,
                      const std::vector<Annotation>& annotations,
                      std::vector<Finding>& findings) {
  const auto conforming = [](const std::string& name) {
    if (name.empty()) return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
             c == '.';
    });
  };
  // Registration sites: GLOVE_SPAN("n"), GLOVE_SPAN_NAMED(var, "n"), and
  // obs::counter/gauge/histogram("n").  Non-literal name expressions are
  // out of scope — the convention is about the literals a trace or report
  // reader greps for.
  std::map<std::string, int> seen;  // name -> line of first registration
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    const std::string& t = toks[i].text;
    std::size_t literal = 0;  // token index of the name literal; 0 = none
    if (t == "GLOVE_SPAN" && i + 2 < toks.size() && toks[i + 1].text == "(" &&
        toks[i + 2].kind == TokKind::kString) {
      literal = i + 2;
    } else if (t == "GLOVE_SPAN_NAMED" && i + 4 < toks.size() &&
               toks[i + 1].text == "(" &&
               toks[i + 2].kind == TokKind::kIdentifier &&
               toks[i + 3].text == "," &&
               toks[i + 4].kind == TokKind::kString) {
      literal = i + 4;
    } else if ((t == "counter" || t == "gauge" || t == "histogram") &&
               i >= 2 && toks[i - 1].text == "::" &&
               toks[i - 2].text == "obs" && i + 2 < toks.size() &&
               toks[i + 1].text == "(" &&
               toks[i + 2].kind == TokKind::kString) {
      literal = i + 2;
    }
    if (literal == 0) continue;
    const std::string& raw = toks[literal].text;  // quotes included
    const std::string name =
        raw.size() >= 2 ? raw.substr(1, raw.size() - 2) : "";
    const int line = toks[i].line;
    const int last_line = toks[literal].line;
    if (!conforming(name)) {
      if (!is_suppressed(annotations, "obs-naming", line, last_line)) {
        findings.push_back(
            {file, line, "obs-naming",
             "span/metric name " + raw +
                 " violates the obs naming convention: lowercase dotted "
                 "words matching [a-z0-9_.]+"});
      }
      continue;
    }
    const auto [it, inserted] = seen.emplace(name, line);
    if (!inserted &&
        !is_suppressed(annotations, "obs-naming", line, last_line)) {
      findings.push_back(
          {file, line, "obs-naming",
           "span/metric name \"" + name + "\" already registered at line " +
               std::to_string(it->second) +
               ": obs names are unique per translation unit so a trace or "
               "report line maps to one site"});
    }
  }
}

}  // namespace

std::vector<Finding> lint_tokens(const LexResult& lexed,
                                 const std::string& relative_path,
                                 const AliasTable& aliases) {
  std::vector<Finding> findings;
  const FileClass cls = classify_path(relative_path);
  const std::vector<Annotation> annotations =
      parse_annotations(lexed.comments, relative_path, findings);

  if (cls.emission_layer) {
    const UnorderedDecls decls =
        collect_unordered_decls(lexed.tokens, aliases);
    check_unordered_iteration(lexed.tokens, relative_path, decls, annotations,
                              findings);
  }
  if (!cls.rng_exempt) {
    check_raw_rng(lexed.tokens, relative_path, annotations, findings);
  }
  if (cls.cdr_layer) {
    check_throw_context(lexed.tokens, relative_path, annotations, findings);
  }
  check_obs_naming(lexed.tokens, relative_path, annotations, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> lint_file(const std::string& disk_path,
                               const std::string& relative_path,
                               const AliasTable& aliases) {
  return lint_tokens(lex(read_file(disk_path)), relative_path, aliases);
}

}  // namespace glove::lint
