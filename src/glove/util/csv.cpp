#include "glove/util/csv.hpp"

#include <cctype>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace glove::util {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::vector<std::string_view> split_csv_line(std::string_view line) {
  std::vector<std::string_view> fields;
  if (line.empty()) return fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      fields.push_back(trim(line.substr(start, i - start)));
      start = i + 1;
    }
  }
  return fields;
}

CsvReader::CsvReader(std::istream& in) : in_{in} {}

bool CsvReader::next(std::vector<std::string_view>& fields) {
  while (std::getline(in_, buffer_)) {
    ++line_no_;
    const std::string_view trimmed = trim(buffer_);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    fields = split_csv_line(buffer_);
    ++rows_;
    return true;
  }
  return false;
}

void CsvReader::rewind() {
  in_.clear();
  in_.seekg(0);
  if (!in_) {
    throw std::runtime_error{"CsvReader::rewind: stream is not seekable"};
  }
  rows_ = 0;
  line_no_ = 0;
}

CsvWriter::CsvWriter(std::ostream& out) : out_{out} {}

void CsvWriter::comment(std::string_view text) {
  out_ << "# " << text << '\n';
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << fields[i];
  }
  out_ << '\n';
}

double parse_double(std::string_view field, std::string_view context) {
  double value{};
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{} || ptr != field.data() + field.size()) {
    throw std::invalid_argument{"bad numeric field '" + std::string{field} +
                                "' in " + std::string{context}};
  }
  return value;
}

}  // namespace glove::util
