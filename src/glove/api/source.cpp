#include "glove/api/source.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "glove/obs/metrics.hpp"
#include "glove/obs/span.hpp"
#include "glove/util/dataset_error.hpp"

namespace glove::api {

bool MemorySource::next(cdr::Fingerprint& fingerprint) {
  if (cursor_ >= data_->size()) return false;
  fingerprint = (*data_)[cursor_++];
  return true;
}

CsvFileSource::CsvFileSource(std::string path)
    : path_{std::move(path)}, in_{path_}, reader_{in_} {
  if (!in_) throw std::runtime_error{"cannot open for reading: " + path_};
  name_ = cdr::read_csv_dataset_name(in_);
  rewind();
}

bool CsvFileSource::next(cdr::Fingerprint& fingerprint) {
  static const obs::Counter c_rows = obs::counter("source.csv.rows_read");
  try {
    const bool ok = reader_.next(fingerprint);
    if (ok) c_rows.add();
    return ok;
  } catch (const std::invalid_argument& e) {
    // A malformed row is a *data* problem: surface it as DatasetError so
    // the Engine reports kInvalidDataset (with path and line), matching
    // the empty/too-small cases, not kInvalidConfig.
    throw util::DatasetError{path_ + ": " + e.what()};
  }
}

void CsvFileSource::rewind() {
  try {
    reader_.rewind();
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{path_ + ": " + e.what()};
  }
}

namespace {

/// Blocks decoded per mmap during a sequential scan: large enough to
/// amortize the map/unmap syscalls, small enough that the window stays a
/// few MiB under any dataset.
constexpr std::size_t kSequentialBlocksPerMap = 64;

}  // namespace

GlovebinSource::GlovebinSource(std::string path)
    : reader_{std::move(path)} {
  stats_.file_blocks = reader_.block_count();
}

bool GlovebinSource::next(cdr::Fingerprint& fingerprint) {
  if (buffer_cursor_ >= buffer_.size()) {
    const auto blocks = static_cast<std::size_t>(reader_.block_count());
    if (next_block_ >= blocks) return false;
    const std::size_t last =
        std::min(next_block_ + kSequentialBlocksPerMap, blocks);
    GLOVE_SPAN_NAMED(read_span, "source.glovebin.scan_window");
    read_span.arg("first_block", next_block_);
    read_span.arg("blocks", last - next_block_);
    buffer_.clear();
    buffer_cursor_ = 0;
    reader_.read_blocks(next_block_, last,
                        [&](std::uint64_t, cdr::Fingerprint&& fp) {
                          buffer_.push_back(std::move(fp));
                        });
    next_block_ = last;
  }
  fingerprint = std::move(buffer_[buffer_cursor_++]);
  return true;
}

void GlovebinSource::rewind() {
  buffer_.clear();
  buffer_cursor_ = 0;
  next_block_ = 0;
}

bool GlovebinSource::summaries(std::vector<cdr::FingerprintSummary>& out) {
  GLOVE_SPAN_NAMED(span, "source.glovebin.summaries");
  out = reader_.summaries();
  span.arg("fingerprints", out.size());
  stats_.pass_blocks.push_back(0);  // index-only pass: no payload decoded
  return true;
}

std::optional<std::uint64_t> GlovebinSource::fetch(
    const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
    std::vector<cdr::Fingerprint>& store) {
  static const obs::Counter c_blocks =
      obs::counter("source.glovebin.fetch_blocks");
  GLOVE_SPAN_NAMED(fetch_span, "source.glovebin.fetch");
  std::vector<char> needed(static_cast<std::size_t>(reader_.block_count()),
                           0);
  // glove-lint: allow(unordered-iteration, computes the set union of
  // needed blocks into a bitmap; the payload walk below runs in file
  // block order and writes slot-addressed, so hash order never reaches
  // the output)
  for (const auto& [id, slot] : slot_of_id) {
    (void)slot;
    needed[reader_.block_of(id)] = 1;
  }
  std::uint64_t fetched = 0;
  std::uint64_t pass_blocks = 0;
  for (std::size_t b = 0; b < needed.size();) {
    if (needed[b] == 0) {
      ++b;
      continue;
    }
    std::size_t e = b;
    while (e < needed.size() && needed[e] != 0) ++e;
    reader_.read_blocks(b, e, [&](std::uint64_t id, cdr::Fingerprint&& fp) {
      const auto it = slot_of_id.find(static_cast<std::uint32_t>(id));
      if (it != slot_of_id.end()) {
        store[it->second] = std::move(fp);
        ++fetched;
      }
    });
    pass_blocks += e - b;
    b = e;
  }
  stats_.pass_blocks.push_back(pass_blocks);
  c_blocks.add(pass_blocks);
  fetch_span.arg("blocks", pass_blocks);
  fetch_span.arg("fetched", fetched);
  return fetched;
}

const SourceIoStats* GlovebinSource::io_stats() const noexcept {
  stats_.blocks_read = reader_.blocks_read();
  stats_.bytes_mapped = reader_.bytes_mapped();
  return &stats_;
}

std::unique_ptr<DatasetSource> open_dataset_source(const std::string& path) {
  if (cdr::is_glovebin_file(path)) {
    return std::make_unique<GlovebinSource>(path);
  }
  return std::make_unique<CsvFileSource>(path);
}

cdr::FingerprintDataset collect(DatasetSource& source) {
  std::vector<cdr::Fingerprint> fingerprints;
  if (const auto hint = source.size_hint()) {
    fingerprints.reserve(static_cast<std::size_t>(*hint));
  }
  cdr::Fingerprint fp;
  while (source.next(fp)) fingerprints.push_back(std::move(fp));
  return cdr::FingerprintDataset{std::move(fingerprints), source.name()};
}

}  // namespace glove::api
