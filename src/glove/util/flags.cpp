#include "glove/util/flags.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "glove/util/csv.hpp"

namespace glove::util {

Flags::Flags(std::string program_help)
    : program_help_{std::move(program_help)} {}

Flags& Flags::define(std::string name, std::string default_value,
                     std::string help) {
  entries_[std::move(name)] =
      Entry{default_value, std::move(default_value), std::move(help), {}};
  return *this;
}

Flags& Flags::define_enum(std::string name, std::string default_value,
                          std::vector<std::string> choices,
                          std::string help) {
  Entry entry{default_value, std::move(default_value), std::move(help),
              std::move(choices)};
  check_choice(name, entry, entry.default_value);
  entries_[std::move(name)] = std::move(entry);
  return *this;
}

void Flags::check_choice(std::string_view name, const Entry& entry,
                         std::string_view value) {
  if (entry.choices.empty()) return;
  if (std::find(entry.choices.begin(), entry.choices.end(), value) !=
      entry.choices.end()) {
    return;
  }
  std::ostringstream out;
  out << "invalid value '" << value << "' for --" << name << " (choices:";
  for (const std::string& choice : entry.choices) out << ' ' << choice;
  out << ')';
  throw std::invalid_argument{out.str()};
}

void Flags::parse(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    std::string_view arg{argv[i]};
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string{arg.substr(0, eq)};
      value = std::string{arg.substr(eq + 1)};
    } else {
      name = std::string{arg};
      const auto it = entries_.find(name);
      if (it == entries_.end()) {
        throw std::invalid_argument{"unknown flag --" + name + "\n" + usage()};
      }
      // Boolean-style switch unless a value follows.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::invalid_argument{"unknown flag --" + name + "\n" + usage()};
    }
    check_choice(name, it->second, value);
    it->second.value = std::move(value);
  }
}

std::string Flags::usage() const {
  std::ostringstream out;
  out << program_help_ << "\n\nFlags:\n";
  for (const auto& [name, entry] : entries_) {
    out << "  --" << name << " (default: " << entry.default_value << ")\n"
        << "      " << entry.help << '\n';
    if (!entry.choices.empty()) {
      out << "      choices:";
      for (const std::string& choice : entry.choices) out << ' ' << choice;
      out << '\n';
    }
  }
  return out.str();
}

const Flags::Entry& Flags::entry(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument{"flag not defined: " + std::string{name}};
  }
  return it->second;
}

const std::string& Flags::get(std::string_view name) const {
  return entry(name).value;
}

double Flags::get_double(std::string_view name) const {
  return parse_double(entry(name).value, name);
}

bool Flags::get_bool(std::string_view name) const {
  const std::string& v = entry(name).value;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

long long env_int(const char* name, long long fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(raw, &end, 10);
  return (end != nullptr && *end == '\0') ? value : fallback;
}

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  return (end != nullptr && *end == '\0') ? value : fallback;
}

}  // namespace glove::util
