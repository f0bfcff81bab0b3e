// CSV I/O for CDR traces and fingerprint datasets.
//
// Two formats:
//   * raw CDR trace:      user_id, time_min, lat_deg, lon_deg
//   * fingerprint dataset: a "# glove fingerprint dataset: NAME" header
//     comment, then one row per sample: members ('+'-joined user ids of
//     the group), x, dx, y, dy, t, dt, contributors
// Both are plain comma-separated numeric files with '#' comments, mirroring
// the flat traces distributed by the D4D challenge.  A fingerprint dataset
// is read one way only, by DatasetStreamReader (api::CsvFileSource wraps
// it with the stored name and the path).

#ifndef GLOVE_CDR_IO_HPP
#define GLOVE_CDR_IO_HPP

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "glove/cdr/builder.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/util/csv.hpp"

namespace glove::cdr {

/// Writes raw CDR events as CSV rows "user,time_min,lat,lon".
void write_cdr_csv(std::ostream& out, const std::vector<CdrEvent>& events);

/// Streaming CDR trace reader: decodes one event per data row, holding
/// O(1 row) memory, so traces larger than RAM can be consumed
/// incrementally (e.g. to feed shard inputs or the incremental strategy).
/// The bulk `read_cdr_csv` below is a thin collect-all wrapper over this.
class CdrEventReader {
 public:
  explicit CdrEventReader(std::istream& in) : reader_{in} {}

  /// Same, but malformed-row messages lead with `path` (the throw-context
  /// convention for cdr io), so a caller tailing several traces can tell
  /// which file held the bad row without wrapping the call.
  CdrEventReader(std::istream& in, std::string path)
      : reader_{in}, path_{std::move(path)} {}

  /// Decodes the next event.  Returns false at end of input; throws
  /// std::invalid_argument on malformed rows (prefixed with the path when
  /// one was given at construction).
  bool next(CdrEvent& event);

  /// Number of events returned so far.
  [[nodiscard]] std::size_t rows_read() const noexcept {
    return reader_.rows_read();
  }

 private:
  util::CsvReader reader_;
  std::vector<std::string_view> fields_;
  std::string path_;  ///< "" for anonymous streams (no prefix)
};

/// Resume/tail-friendly CDR reader for files another process is still
/// appending to (the glove-serve ingest path).  Unlike CdrEventReader it
/// owns the file handle and treats end-of-input as a transient condition:
///
///   * a missing file is "nothing yet" (poll returns false until it
///     appears), so the reader can be started before its producer;
///   * a partial trailing line — bytes after the last newline, i.e. a row
///     the producer is mid-write on — is NOT parsed: poll returns false,
///     the next poll rewinds to the row's start, and the completed row is
///     decoded once its newline lands;
///   * truncation and rotation are detected when a read finds no complete
///     row: when the file has shrunk below the consumed offset (a producer
///     restarted the feed) or the path points at a new inode (logrotate
///     moved the old file away), the reader reopens and consumes the new
///     file from byte 0 in the same poll, so a rotated file's unread rows
///     come first, and it never seeks past a new end or tails the renamed
///     file forever.  `rows_read()` stays cumulative across reopens;
///     `line_number()` restarts with the new file.
///
/// Malformed *complete* rows throw std::invalid_argument with the path and
/// line number prefixed.  The stream stays positioned between polls: only
/// a read that found no complete row costs a stat, and only the poll after
/// it re-seeks to the first unconsumed byte, so the reader holds O(1 row)
/// state between polls.
class CdrEventTailReader {
 public:
  explicit CdrEventTailReader(std::string path) : path_{std::move(path)} {}

  /// Decodes the next complete event if one is available.  Returns false
  /// when the file is missing, fully consumed, or ends in a partial row
  /// (retry later); true with `event` filled otherwise.
  bool poll(CdrEvent& event);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// True once the file has been successfully opened (it existed at some
  /// poll) — lets batch-mode callers distinguish "consumed to EOF" from
  /// "never appeared".
  [[nodiscard]] bool opened() const noexcept { return opened_; }

  /// Events returned so far.
  [[nodiscard]] std::size_t rows_read() const noexcept { return rows_; }

  /// 1-based number of the last fully consumed line (data or comment).
  [[nodiscard]] std::size_t line_number() const noexcept { return line_no_; }

 private:
  /// Opens path_ to consume from byte 0 and records its inode; false when
  /// it cannot be opened (yet).
  bool open();

  /// True when the file was truncated below offset_ or its path names
  /// another inode, or nothing, since it was opened.
  [[nodiscard]] bool source_replaced() const;

  std::string path_;
  std::ifstream in_;
  bool opened_ = false;
  /// The last read found no complete row: the next poll clears eof and
  /// re-seeks to offset_, dropping a partial row's bytes.
  bool at_end_ = false;
  std::uint64_t offset_ = 0;  ///< byte offset of the first unconsumed line
  std::uint64_t inode_ = 0;   ///< inode at open (0 where unsupported)
  std::size_t rows_ = 0;
  std::size_t line_no_ = 0;
  std::string line_;
  std::vector<std::string_view> fields_;
};

/// Reads raw CDR events; throws std::invalid_argument on malformed rows.
[[nodiscard]] std::vector<CdrEvent> read_cdr_csv(std::istream& in);

/// Writes a fingerprint dataset (possibly anonymized).  Each sample row is
/// "members,x,dx,y,dy,t,dt,contributors" where members is a '+'-joined list
/// of user ids sharing the (generalized) fingerprint.
void write_dataset_csv(std::ostream& out, const FingerprintDataset& data);

/// Streaming fingerprint writer: emits the dataset header once, then one
/// group at a time, producing byte-identical files to `write_dataset_csv`
/// (which is a thin loop over this) while holding O(1 group) memory — the
/// emit side of file-to-file anonymization runs.  `path` only names the
/// target in error messages ("" for anonymous streams).
class DatasetStreamWriter {
 public:
  explicit DatasetStreamWriter(std::ostream& out, std::string path = {})
      : out_{&out}, writer_{out}, path_{std::move(path)} {}

  /// Writes the two header comment lines, the first storing
  /// `dataset_name` verbatim (check_dataset_name rejects a name with a
  /// line break).  Call once, before any group.  Flushes and throws
  /// std::runtime_error when the stream rejects them, so an unwritable
  /// target fails at run start instead of surfacing at the first group —
  /// or never, for an empty result.
  void begin(const std::string& dataset_name);

  /// Appends one fingerprint's sample rows.
  void write(const Fingerprint& fingerprint);

 private:
  std::ostream* out_;
  util::CsvWriter writer_;
  std::string path_;
};

/// The dataset name a fingerprint CSV stores in its
/// "# glove fingerprint dataset: NAME" header comment, a trailing '\r'
/// stripped, or "" when the comments before the first data row hold no
/// such line.  Consumes the lines it reads: rewind the stream after.
[[nodiscard]] std::string read_csv_dataset_name(std::istream& in);

/// The fingerprint-dataset CSV decoder: yields one fingerprint per
/// contiguous run of rows sharing a members key, holding O(1 fingerprint)
/// memory.  Files written by `write_dataset_csv` keep each group's rows
/// contiguous, so streaming over them is lossless; an input that
/// interleaves group rows yields one fingerprint per run, in file order.
class DatasetStreamReader {
 public:
  explicit DatasetStreamReader(std::istream& in) : reader_{in} {}

  /// Reads the next fingerprint.  Returns false at end of input; throws
  /// std::invalid_argument naming the line on malformed rows, including
  /// ids and counts that do not fit their field.
  bool next(Fingerprint& fingerprint);

  /// Restarts from the beginning of the stream, including after EOF, so
  /// two-pass consumers (shard planning, then shard materialization) can
  /// re-read the same seekable stream.  Throws std::runtime_error when the
  /// stream cannot seek.
  void rewind();

 private:
  util::CsvReader reader_;
  std::vector<std::string_view> fields_;
  /// First row of the next run, read while ending the current one;
  /// pending_members_ is empty when no row is held back.
  std::string pending_key_;
  std::vector<UserId> pending_members_;
  Sample pending_sample_;
};

/// File-path convenience writers and the CDR trace reader; throw
/// std::runtime_error when the file cannot be opened or written, and
/// rethrow parse failures with the offending path prefixed (row numbers
/// are already in the parser messages), so callers reading several files
/// can tell which one failed.  Read a fingerprint dataset file through
/// api::open_dataset_source.
void write_cdr_file(const std::string& path,
                    const std::vector<CdrEvent>& events);
[[nodiscard]] std::vector<CdrEvent> read_cdr_file(const std::string& path);
void write_dataset_file(const std::string& path,
                        const FingerprintDataset& data);

}  // namespace glove::cdr

#endif  // GLOVE_CDR_IO_HPP
