// DatasetSource: the pull side of the Engine's streaming run boundary.
//
// A source yields fingerprints one at a time and can be rewound, so
// two-pass strategies (the sharded backend plans on a first pass and
// materializes shard batches on later ones) never need the whole dataset
// in memory.  MemorySource adapts an existing in-memory dataset — the
// legacy dataset-in/dataset-out Engine overload is a thin wrapper around
// it — and the file sources are the one way a dataset file is read:
// CsvFileSource streams a fingerprint-dataset CSV straight off disk
// through cdr::DatasetStreamReader, GlovebinSource a glovebin file.  Every
// source is named by the dataset's stored name, never by its path.

#ifndef GLOVE_API_SOURCE_HPP
#define GLOVE_API_SOURCE_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "glove/cdr/binio.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/cdr/io.hpp"
#include "glove/util/dataset_error.hpp"

namespace glove::api {

/// Io accounting an index-capable source exposes for the run report's
/// `io` section.  `pass_blocks` records, per planning/materialization
/// pass, how many payload blocks the pass decoded (0 for an index-only
/// planning pass); `blocks_read`/`bytes_mapped` are the cumulative
/// totals.
struct SourceIoStats {
  std::uint64_t file_blocks = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t bytes_mapped = 0;
  std::vector<std::uint64_t> pass_blocks;
};

class DatasetSource {
 public:
  virtual ~DatasetSource() = default;

  /// Stable identifier of the source's transport ("memory", "csv-file"),
  /// recorded in the run report.
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;

  /// The dataset's stored name: the in-memory dataset's name, a CSV
  /// file's "# glove fingerprint dataset:" header or a glovebin file's
  /// footer ("" when the input stores none).  It names the release (line
  /// 1 of a CSV output) and the report's `dataset` field, so a release
  /// follows the content alone, never the file's path or format.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Yields the next fingerprint.  Returns false at end of input; may
  /// throw (e.g. std::invalid_argument on malformed rows).
  virtual bool next(cdr::Fingerprint& fingerprint) = 0;

  /// Restarts the sequence from the first fingerprint, including after
  /// EOF.  Every pass must yield the same fingerprints in the same order;
  /// streaming strategies abort with a dataset error when the count
  /// changes between passes.
  virtual void rewind() = 0;

  /// Fingerprint count when the source knows it upfront (memory sources
  /// do, file sources do not).
  [[nodiscard]] virtual std::optional<std::uint64_t> size_hint() const {
    return std::nullopt;
  }

  /// Zero-copy escape hatch: the backing dataset when this source is an
  /// adapter over one already in memory, else nullptr.  Streaming
  /// strategies then read fingerprints by index instead of copy-yielding
  /// the whole sequence once per pass; the output is identical either
  /// way.
  [[nodiscard]] virtual const cdr::FingerprintDataset* materialized()
      const noexcept {
    return nullptr;
  }

  /// Index fast path for planning scans: when the source carries
  /// precomputed per-fingerprint summaries (the exact
  /// core::fingerprint_bounds geometry plus group size and sample count,
  /// in stream order), fills `out` and returns true — the caller then
  /// skips streaming the payload entirely.  Default: unsupported.
  virtual bool summaries(std::vector<cdr::FingerprintSummary>& out) {
    (void)out;
    return false;
  }

  /// Index fast path for rewound materialization passes: fetches exactly
  /// the fingerprints whose stream index keys `slot_of_id`, storing each
  /// at its mapped slot in `store` (pre-sized by the caller), and returns
  /// how many it materialized.  Sources without random access return
  /// nullopt and the caller re-streams the whole sequence instead.
  virtual std::optional<std::uint64_t> fetch(
      const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
      std::vector<cdr::Fingerprint>& store) {
    (void)slot_of_id;
    (void)store;
    return std::nullopt;
  }

  /// Io accounting for the run report when this source tracks it
  /// (index-capable file sources), else nullptr.
  [[nodiscard]] virtual const SourceIoStats* io_stats() const noexcept {
    return nullptr;
  }

  /// Path of the file backing this source, when there is one.  Nothing in
  /// src/ calls it and no source in src/ overrides it; it stays because
  /// perfbench/harness.cpp's timing wrapper overrides it.
  [[nodiscard]] virtual std::optional<std::string> file_path() const {
    return std::nullopt;
  }
};

/// Streams an existing in-memory dataset (copies on yield; the dataset
/// must outlive the source).
class MemorySource final : public DatasetSource {
 public:
  explicit MemorySource(const cdr::FingerprintDataset& data) noexcept
      : data_{&data} {}

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "memory";
  }
  [[nodiscard]] std::string name() const override { return data_->name(); }
  bool next(cdr::Fingerprint& fingerprint) override;
  void rewind() override { cursor_ = 0; }
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return data_->size();
  }
  [[nodiscard]] const cdr::FingerprintDataset* materialized()
      const noexcept override {
    return data_;
  }

 private:
  const cdr::FingerprintDataset* data_;
  std::size_t cursor_ = 0;
};

/// Streams a fingerprint-dataset CSV (the write_dataset_csv format) from
/// a file, holding O(1 fingerprint) memory, named by its header comment
/// (cdr::read_csv_dataset_name).  Throws std::runtime_error when the file
/// cannot be opened; parse failures carry the path and row number and
/// surface as util::DatasetError (kInvalidDataset at the Engine
/// boundary).  `rewind()` seeks back to the start, so the file can be
/// consumed any number of times.
class CsvFileSource final : public DatasetSource {
 public:
  explicit CsvFileSource(std::string path);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "csv-file";
  }
  [[nodiscard]] std::string name() const override { return name_; }
  bool next(cdr::Fingerprint& fingerprint) override;
  void rewind() override;

 private:
  std::string path_;
  std::ifstream in_;
  cdr::DatasetStreamReader reader_;
  std::string name_;
};

/// Streams a glovebin file (cdr/binio.hpp), named by its footer, decoding
/// one block range at a time, and serves the index fast paths:
/// summaries() reads the footer instead of the payload and fetch() maps
/// only the blocks holding the requested fingerprints.  Throws
/// std::runtime_error with the path when the file cannot be opened or
/// fails validation; the reader's util::DatasetError for a corrupt block
/// payload (kInvalidDataset at the Engine boundary) passes through,
/// matching CsvFileSource's malformed-row behavior.
class GlovebinSource final : public DatasetSource {
 public:
  explicit GlovebinSource(std::string path);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "glovebin-file";
  }
  [[nodiscard]] std::string name() const override {
    return reader_.dataset_name();
  }
  bool next(cdr::Fingerprint& fingerprint) override;
  void rewind() override;
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return reader_.fingerprint_count();
  }
  bool summaries(std::vector<cdr::FingerprintSummary>& out) override;
  std::optional<std::uint64_t> fetch(
      const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
      std::vector<cdr::Fingerprint>& store) override;
  [[nodiscard]] const SourceIoStats* io_stats() const noexcept override;

 private:
  cdr::GlovebinReader reader_;
  std::vector<cdr::Fingerprint> buffer_;  ///< sequential-scan block window
  std::size_t buffer_cursor_ = 0;
  std::size_t next_block_ = 0;
  mutable SourceIoStats stats_;
};

/// Opens `path` as the matching file source: GlovebinSource when the file
/// leads with the glovebin magic, CsvFileSource otherwise.
[[nodiscard]] std::unique_ptr<DatasetSource> open_dataset_source(
    const std::string& path);

/// Materializes everything the source still holds into a dataset named
/// after the source — the collect-then-run fallback for strategies that
/// need the full pair matrix.
[[nodiscard]] cdr::FingerprintDataset collect(DatasetSource& source);

}  // namespace glove::api

#endif  // GLOVE_API_SOURCE_HPP
