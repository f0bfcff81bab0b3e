#include "glove/cdr/io.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#endif

#include "glove/util/csv.hpp"

namespace glove::cdr {

namespace {

std::string format_double(double v) {
  // Shortest round-trip form (std::to_chars): every double reparses to
  // the exact same bits, so write -> read -> write is idempotent.  The
  // previous 10-significant-digit ostream formatting silently drifted
  // generalized extents across chained file-to-file runs.
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof buffer, v);
  return std::string(buffer, result.ptr);
}

std::string join_members(std::span<const UserId> members) {
  std::string out;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i != 0) out += '+';
    out += std::to_string(members[i]);
  }
  return out;
}

/// `context` names the row ("dataset row at line N"); CsvFileSource
/// prefixes the path.
std::vector<UserId> parse_members(std::string_view field,
                                  const std::string& context) {
  std::vector<UserId> members;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= field.size(); ++i) {
    if (i == field.size() || field[i] == '+') {
      members.push_back(util::parse_integer<UserId>(
          field.substr(start, i - start), "member id", context));
      start = i + 1;
    }
  }
  check_members(members, context);
  return members;
}

}  // namespace

void write_cdr_csv(std::ostream& out, const std::vector<CdrEvent>& events) {
  util::CsvWriter writer{out};
  writer.comment("glove CDR trace: user_id,time_min,lat_deg,lon_deg");
  for (const CdrEvent& ev : events) {
    writer.row({std::to_string(ev.user), format_double(ev.time_min),
                format_double(ev.antenna.lat_deg),
                format_double(ev.antenna.lon_deg)});
  }
}

namespace {

/// Decodes one split CDR row into `event`.  `context` already names the
/// offending path (when known) and line, so every failure here is
/// actionable without a wrapper.
void decode_cdr_row(const std::vector<std::string_view>& fields,
                    const std::string& context, CdrEvent& event) {
  if (fields.size() != 4) {
    throw std::invalid_argument{context + ": expected 4 fields, got " +
                                std::to_string(fields.size())};
  }
  event.user = util::parse_integer<UserId>(fields[0], "user id", context);
  event.time_min = util::parse_double(fields[1], context);
  event.antenna.lat_deg = util::parse_double(fields[2], context);
  event.antenna.lon_deg = util::parse_double(fields[3], context);
  require_finite(event.time_min, "time", context);
  check_antenna(event.antenna, context);
}

}  // namespace

bool CdrEventReader::next(CdrEvent& event) {
  if (!reader_.next(fields_)) return false;
  const std::string context =
      (path_.empty() ? std::string{} : path_ + ": ") + "CDR row at line " +
      std::to_string(reader_.line_number());
  decode_cdr_row(fields_, context, event);
  return true;
}

bool CdrEventTailReader::source_replaced() const {
#if defined(__unix__) || defined(__APPLE__)
  struct ::stat st {};
  if (::stat(path_.c_str(), &st) != 0) {
    // Vanished mid-rotation: drop the handle now, start over once the
    // producer recreates the path.
    return true;
  }
  return static_cast<std::uint64_t>(st.st_ino) != inode_ ||
         static_cast<std::uint64_t>(st.st_size) < offset_;
#else
  // Without stat() only truncation is observable, not a same-size swap.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path_, ec);
  return ec || static_cast<std::uint64_t>(size) < offset_;
#endif
}

bool CdrEventTailReader::open() {
  in_ = std::ifstream{path_, std::ios::binary};
  opened_ = static_cast<bool>(in_);
  offset_ = 0;
  line_no_ = 0;
  at_end_ = false;
  if (!opened_) {
    in_ = std::ifstream{};  // reset state so a later open can succeed
    return false;
  }
  inode_ = 0;
#if defined(__unix__) || defined(__APPLE__)
  struct ::stat st {};
  if (::stat(path_.c_str(), &st) == 0) {
    inode_ = static_cast<std::uint64_t>(st.st_ino);
  }
#endif
  return true;
}

bool CdrEventTailReader::poll(CdrEvent& event) {
  if (!opened_ && !open()) return false;
  if (at_end_) {
    // Clear the sticky eofbit and re-read from the first unconsumed byte,
    // so a row that was partial last time is decoded whole.
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(offset_));
    at_end_ = false;
  }
  for (;;) {
    if (!std::getline(in_, line_) || in_.eof()) {
      // Nothing new, or bytes without a terminating newline — a row the
      // producer is mid-write on; offset_ stays at the row start.  The
      // open file is drained, so follow a truncated or replaced path now.
      if (source_replaced()) {
        if (!open()) return false;
        continue;
      }
      at_end_ = true;
      return false;
    }
    offset_ += line_.size() + 1;  // +1 for the consumed '\n'
    ++line_no_;
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    const std::size_t text = line_.find_first_not_of(" \t");
    if (text == std::string::npos || line_[text] == '#') continue;
    fields_ = util::split_csv_line(line_);
    const std::string context =
        path_ + ": CDR row at line " + std::to_string(line_no_);
    decode_cdr_row(fields_, context, event);
    ++rows_;
    return true;
  }
}

std::vector<CdrEvent> read_cdr_csv(std::istream& in) {
  CdrEventReader reader{in};
  std::vector<CdrEvent> events;
  CdrEvent event;
  while (reader.next(event)) events.push_back(event);
  return events;
}

void DatasetStreamWriter::begin(const std::string& dataset_name) {
  check_dataset_name(dataset_name, path_);
  writer_.comment("glove fingerprint dataset: " + dataset_name);
  writer_.comment("members,x,dx,y,dy,t,dt,contributors");
  out_->flush();
  if (!*out_) {
    throw std::runtime_error{"failed writing dataset header" +
                             (path_.empty() ? "" : " to " + path_)};
  }
}

void DatasetStreamWriter::write(const Fingerprint& fingerprint) {
  const std::string members = join_members(fingerprint.members());
  for (const Sample& s : fingerprint.samples()) {
    writer_.row({members, format_double(s.sigma.x), format_double(s.sigma.dx),
                 format_double(s.sigma.y), format_double(s.sigma.dy),
                 format_double(s.tau.t), format_double(s.tau.dt),
                 std::to_string(s.contributors)});
  }
}

void write_dataset_csv(std::ostream& out, const FingerprintDataset& data) {
  DatasetStreamWriter writer{out};
  writer.begin(data.name());
  for (const Fingerprint& fp : data.fingerprints()) writer.write(fp);
}

std::string read_csv_dataset_name(std::istream& in) {
  constexpr std::string_view prefix{"# glove fingerprint dataset: "};
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] != '#') break;  // data before the header comment
    if (line.starts_with(prefix)) return line.substr(prefix.size());
  }
  return {};
}

bool DatasetStreamReader::next(Fingerprint& fingerprint) {
  // A run starts with the row that ended the previous one, if any.
  std::string key = std::exchange(pending_key_, {});
  std::vector<UserId> members = std::exchange(pending_members_, {});
  std::vector<Sample> samples;
  if (!members.empty()) samples.push_back(pending_sample_);
  while (reader_.next(fields_)) {
    const std::string context =
        "dataset row at line " + std::to_string(reader_.line_number());
    if (fields_.size() != 8) {
      throw std::invalid_argument{context + ": expected 8 fields, got " +
                                  std::to_string(fields_.size())};
    }
    Sample s;
    s.sigma.x = util::parse_double(fields_[1], context);
    s.sigma.dx = util::parse_double(fields_[2], context);
    s.sigma.y = util::parse_double(fields_[3], context);
    s.sigma.dy = util::parse_double(fields_[4], context);
    s.tau.t = util::parse_double(fields_[5], context);
    s.tau.dt = util::parse_double(fields_[6], context);
    s.contributors = util::parse_integer<std::uint32_t>(
        fields_[7], "contributors", context, 1);
    check_sample(s, context);

    if (members.empty()) {
      key.assign(fields_[0]);
      members = parse_members(fields_[0], context);
    } else if (key != fields_[0]) {
      // A new key starts the next run: hold its first row back.
      pending_key_.assign(fields_[0]);
      pending_members_ = parse_members(fields_[0], context);
      pending_sample_ = s;
      break;
    }
    samples.push_back(s);
  }
  if (members.empty()) return false;
  fingerprint = Fingerprint{std::move(members), std::move(samples)};
  return true;
}

void DatasetStreamReader::rewind() {
  reader_.rewind();
  pending_key_.clear();
  pending_members_.clear();
}

namespace {

/// Runs a parse callback, rethrowing its failures with the offending path
/// prefixed — parser messages carry the row's line number but not which
/// file it came from, which is what a caller juggling several traces
/// needs first.
template <typename Fn>
auto with_path_context(const std::string& path, Fn&& fn) {
  try {
    return std::forward<Fn>(fn)();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{path + ": " + e.what()};
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{path + ": " + e.what()};
  }
}

void require_writable(std::ostream& out, const std::string& path) {
  out.flush();
  if (!out) throw std::runtime_error{"failed writing: " + path};
}

}  // namespace

void write_cdr_file(const std::string& path,
                    const std::vector<CdrEvent>& events) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot open for writing: " + path};
  write_cdr_csv(out, events);
  require_writable(out, path);
}

std::vector<CdrEvent> read_cdr_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open for reading: " + path};
  return with_path_context(path, [&] { return read_cdr_csv(in); });
}

void write_dataset_file(const std::string& path,
                        const FingerprintDataset& data) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot open for writing: " + path};
  write_dataset_csv(out, data);
  require_writable(out, path);
}

}  // namespace glove::cdr
