// glovebin: the binary columnar fingerprint-dataset format.
//
// The CSV dataset format re-parses every double on every pass, which makes
// ingest the bottleneck of streaming sharded runs (each shard batch and
// each reconcile budget rewinds the source).  glovebin stores the same
// dataset losslessly — exact little-endian IEEE doubles, fingerprints in
// file order, samples in each fingerprint's time-sorted order — plus a
// footer the streaming passes can exploit:
//
//   header   magic "glovebin", format version, writer block size
//   blocks   ~kGlovebinDefaultBlockFingerprints fingerprints each; a
//            fingerprint record is (member_count, sample_count, members,
//            samples), a sample is sigma (4 doubles) + tau (2 doubles) +
//            contributors
//   footer   per-fingerprint summaries (the exact core::fingerprint_bounds
//            geometry + group size + sample count — pass 1 of a sharded
//            run becomes a read of this table), then the block index
//            (offset/length/fingerprint range/min-max locality_sort_key/
//            merged bounds per block — rewound passes map only the blocks
//            that hold the fingerprints they need), then the dataset name
//            (verbatim, "" when unnamed; a name with a line break is
//            rejected on write and on open, as it would become line 1 of
//            a CSV release)
//   trailer  counts + footer offsets + magic again, fixed size at EOF
//
// The reader maps (or on non-POSIX platforms reads) one block range at a
// time, so consuming a glovebin file never costs address space
// proportional to the file — required by the ulimit-capped streaming CI
// gate — and counts blocks_read/bytes_mapped for the run report.

#ifndef GLOVE_CDR_BINIO_HPP
#define GLOVE_CDR_BINIO_HPP

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/cdr/fingerprint.hpp"

namespace glove::cdr {

inline constexpr std::uint32_t kGlovebinVersion = 1;

/// Fingerprints per block the writer targets by default.  Small enough
/// that a spatially random subset of a large dataset leaves many blocks
/// untouched (the block-seek fast path's win), large enough that the index
/// overhead stays below 1% of typical payloads.
inline constexpr std::uint32_t kGlovebinDefaultBlockFingerprints = 32;

/// True when the first bytes of `path` carry the glovebin magic.  False
/// for short, unreadable or non-glovebin files — the cheap sniff CLI
/// auto-detection uses before choosing a source.
[[nodiscard]] bool is_glovebin_file(const std::string& path);

/// Per-fingerprint footer entry: bit-exact copies of the
/// core::fingerprint_bounds fields (so an index-based planning pass
/// reproduces the streamed scan's geometry byte for byte) plus the group
/// size and sample count the scan also folds.
struct FingerprintSummary {
  double x = 0.0;   ///< bounding box west edge (SpatialExtent::x)
  double dx = 0.0;  ///< bounding box width
  double y = 0.0;   ///< bounding box south edge
  double dy = 0.0;  ///< bounding box height
  double t = 0.0;   ///< bounding interval start (TemporalExtent::t)
  double dt = 0.0;  ///< bounding interval length
  std::uint32_t group_size = 0;
  std::uint32_t sample_count = 0;
};

/// Block-index footer entry.
struct GlovebinBlock {
  std::uint64_t offset = 0;  ///< payload byte offset of the block
  std::uint64_t bytes = 0;   ///< payload byte length
  std::uint64_t first = 0;   ///< dataset index of the block's first fingerprint
  std::uint64_t count = 0;   ///< fingerprints in the block
  /// core::locality_sort_key range over the block's (non-empty)
  /// fingerprints — lets tile-aware consumers skip blocks whose key range
  /// cannot intersect theirs.
  std::uint64_t min_key = 0;
  std::uint64_t max_key = 0;
  /// Merged bounding geometry of the block's fingerprints.
  double x = 0.0, dx = 0.0, y = 0.0, dy = 0.0, t = 0.0, dt = 0.0;
};

/// Streaming glovebin writer: begin() once, write() per fingerprint,
/// finish() once.  Holds O(1 block) payload plus the growing footer
/// tables (56 B per fingerprint, 96 B per block).  Throws
/// std::runtime_error with the path on open or write failure — begin()
/// already flushes the header so an unwritable target fails at run start.
class GlovebinWriter {
 public:
  explicit GlovebinWriter(
      std::string path,
      std::uint32_t block_fingerprints = kGlovebinDefaultBlockFingerprints);

  /// Writes the header and records the dataset name for the footer;
  /// throws util::DatasetError with the path when the name holds a line
  /// break (check_dataset_name).
  void begin(const std::string& dataset_name);

  /// Appends one fingerprint (samples in its stored, time-sorted order).
  void write(const Fingerprint& fingerprint);

  /// Flushes the last block, writes footer + trailer and validates the
  /// stream.  Call once, after the last fingerprint.
  void finish();

 private:
  void flush_block();

  std::string path_;
  std::ofstream out_;
  std::uint32_t block_fingerprints_;
  std::string name_;
  bool begun_ = false;
  bool finished_ = false;
  std::string block_buf_;
  std::uint64_t block_count_ = 0;   ///< fingerprints in block_buf_
  std::uint64_t payload_offset_ = 0;
  GlovebinBlock pending_;           ///< metadata of the block being filled
  std::vector<FingerprintSummary> summaries_;
  std::vector<GlovebinBlock> blocks_;
};

/// Random-access glovebin reader.  Opening validates the header/trailer
/// and loads the footer (summaries, block index, name) into memory; block
/// payloads are mapped page-aligned per read_blocks() call and unmapped
/// after decoding, so peak address space stays O(largest requested block
/// range), never O(file).  Throws std::runtime_error with the path on
/// open/validation failure, and util::DatasetError naming the path when
/// the stored name holds a line break or a block payload is corrupt.
/// Programs read glovebin datasets through api::GlovebinSource, which
/// wraps it.
class GlovebinReader {
 public:
  explicit GlovebinReader(std::string path);

  GlovebinReader(const GlovebinReader&) = delete;
  GlovebinReader& operator=(const GlovebinReader&) = delete;

  [[nodiscard]] const std::string& dataset_name() const noexcept {
    return name_;
  }
  [[nodiscard]] std::uint64_t fingerprint_count() const noexcept {
    return static_cast<std::uint64_t>(summaries_.size());
  }
  [[nodiscard]] std::uint64_t block_count() const noexcept {
    return static_cast<std::uint64_t>(blocks_.size());
  }
  [[nodiscard]] const std::vector<FingerprintSummary>& summaries()
      const noexcept {
    return summaries_;
  }
  [[nodiscard]] const std::vector<GlovebinBlock>& block_index()
      const noexcept {
    return blocks_;
  }

  /// Dataset index of the block holding fingerprint `id` (binary search
  /// over the index).
  [[nodiscard]] std::size_t block_of(std::uint64_t id) const;

  /// Decodes blocks [first_block, last_block) in file order, invoking
  /// `fn(fingerprint_index, fingerprint)` per fingerprint.  The range is
  /// mapped with one call, so callers batching consecutive blocks pay one
  /// mmap per run.  Fingerprints are reconstructed with
  /// Fingerprint::from_time_sorted — byte-identical to what the CSV path
  /// fed through the Fingerprint constructor when the file was written.
  /// A record is corrupt if it fails cdr::check_members, cdr::check_sample
  /// or time order, or differs from its footer summary in any bit.
  void read_blocks(
      std::size_t first_block, std::size_t last_block,
      const std::function<void(std::uint64_t, Fingerprint&&)>& fn);

  /// Cumulative io accounting across read_blocks calls.
  [[nodiscard]] std::uint64_t blocks_read() const noexcept {
    return blocks_read_;
  }
  [[nodiscard]] std::uint64_t bytes_mapped() const noexcept {
    return bytes_mapped_;
  }

 private:
  std::string path_;
  std::string name_;
  std::vector<FingerprintSummary> summaries_;
  std::vector<GlovebinBlock> blocks_;
  std::uint64_t blocks_read_ = 0;
  std::uint64_t bytes_mapped_ = 0;
  /// POSIX descriptor; -1 when using the stream fallback.  A member that
  /// closes it, so a constructor that rejects the file does not leak it.
  struct Descriptor {
    int fd = -1;
    Descriptor() = default;
    Descriptor(const Descriptor&) = delete;
    Descriptor& operator=(const Descriptor&) = delete;
    ~Descriptor();
  };
  Descriptor fd_;
};

/// Whole-dataset writer mirroring write_dataset_file: preserves each
/// fingerprint's stored sample order and throws std::runtime_error with
/// the path on failure.
void write_dataset_glovebin_file(
    const std::string& path, const FingerprintDataset& data,
    std::uint32_t block_fingerprints = kGlovebinDefaultBlockFingerprints);

}  // namespace glove::cdr

#endif  // GLOVE_CDR_BINIO_HPP
