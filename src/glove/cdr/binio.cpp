#include "glove/cdr/binio.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

// The writer stores each fingerprint's exact planning geometry in the
// footer so a sharded run's pass 1 can read the index instead of the
// payload, and the reader checks every decoded fingerprint against it.
// Those values must be bit-identical to what the streamed scan computes,
// so they come from the same functions (core::scalability); the
// dependency lives in this .cpp only — binio.hpp stays a pure cdr header.
#include "glove/core/scalability.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define GLOVE_GLOVEBIN_POSIX 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace glove::cdr {

namespace {

constexpr char kMagic[8] = {'g', 'l', 'o', 'v', 'e', 'b', 'i', 'n'};
constexpr std::uint64_t kHeaderBytes = 16;   // magic + version + block size
constexpr std::uint64_t kTrailerBytes = 48;  // 5 u64 + magic
constexpr std::uint64_t kSummaryBytes = 56;  // 6 f64 + 2 u32
constexpr std::uint64_t kBlockEntryBytes = 96;  // 6 u64 + 6 f64
constexpr std::uint64_t kSampleBytes = 52;      // 6 f64 + contributors
// No padding in memory either, so memcmp compares summaries bit for bit.
static_assert(sizeof(FingerprintSummary) == kSummaryBytes);

// Explicit little-endian byte assembly: endian-independent, and compilers
// lower it to single moves on little-endian hosts.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

double get_f64(const unsigned char* p) {
  return std::bit_cast<double>(get_u64(p));
}

void append_summary(std::string& out, const FingerprintSummary& s) {
  put_f64(out, s.x);
  put_f64(out, s.dx);
  put_f64(out, s.y);
  put_f64(out, s.dy);
  put_f64(out, s.t);
  put_f64(out, s.dt);
  put_u32(out, s.group_size);
  put_u32(out, s.sample_count);
}

/// The footer summary of `fp`, whose core::fingerprint_bounds are `bounds`.
FingerprintSummary summary_of(const Fingerprint& fp,
                              const core::FingerprintBounds& bounds) {
  FingerprintSummary summary;
  summary.x = bounds.box.x;
  summary.dx = bounds.box.dx;
  summary.y = bounds.box.y;
  summary.dy = bounds.box.dy;
  summary.t = bounds.interval.t;
  summary.dt = bounds.interval.dt;
  summary.group_size = fp.group_size();
  summary.sample_count = static_cast<std::uint32_t>(fp.size());
  return summary;
}

void append_block(std::string& out, const GlovebinBlock& b) {
  put_u64(out, b.offset);
  put_u64(out, b.bytes);
  put_u64(out, b.first);
  put_u64(out, b.count);
  put_u64(out, b.min_key);
  put_u64(out, b.max_key);
  put_f64(out, b.x);
  put_f64(out, b.dx);
  put_f64(out, b.y);
  put_f64(out, b.dy);
  put_f64(out, b.t);
  put_f64(out, b.dt);
}

}  // namespace

bool is_glovebin_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  char head[sizeof kMagic];
  in.read(head, sizeof head);
  return in.gcount() == sizeof head &&
         std::memcmp(head, kMagic, sizeof kMagic) == 0;
}

// --- Writer -------------------------------------------------------------

GlovebinWriter::GlovebinWriter(std::string path,
                               std::uint32_t block_fingerprints)
    : path_{std::move(path)},
      out_{path_, std::ios::binary},
      block_fingerprints_{std::max<std::uint32_t>(block_fingerprints, 1)} {
  if (!out_) throw std::runtime_error{"cannot open for writing: " + path_};
}

void GlovebinWriter::begin(const std::string& dataset_name) {
  if (begun_) {
    throw std::logic_error{path_ + ": GlovebinWriter::begin called twice"};
  }
  check_dataset_name(dataset_name, path_);
  begun_ = true;
  name_ = dataset_name;
  std::string header;
  header.append(kMagic, sizeof kMagic);
  put_u32(header, kGlovebinVersion);
  put_u32(header, block_fingerprints_);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.flush();  // an unwritable target must fail at run start
  if (!out_) throw std::runtime_error{"failed writing: " + path_};
  payload_offset_ = kHeaderBytes;
}

void GlovebinWriter::write(const Fingerprint& fingerprint) {
  if (!begun_ || finished_) {
    throw std::logic_error{
        path_ + ": GlovebinWriter::write outside a begin/finish window"};
  }
  const core::FingerprintBounds bounds =
      core::fingerprint_bounds(fingerprint);
  const FingerprintSummary summary = summary_of(fingerprint, bounds);

  if (block_count_ == 0) {
    pending_ = GlovebinBlock{};
    pending_.first = static_cast<std::uint64_t>(summaries_.size());
    pending_.min_key = std::numeric_limits<std::uint64_t>::max();
    pending_.max_key = 0;
  }
  if (!fingerprint.empty()) {
    // An empty fingerprint has infinite (empty-fold) bounds; keep it out
    // of the block's informational geometry and key range.
    const std::uint64_t key = core::locality_sort_key(bounds);
    if (pending_.min_key > pending_.max_key) {
      pending_.x = bounds.box.x;
      pending_.dx = bounds.box.dx;
      pending_.y = bounds.box.y;
      pending_.dy = bounds.box.dy;
      pending_.t = bounds.interval.t;
      pending_.dt = bounds.interval.dt;
    } else {
      const double x_hi = std::max(pending_.x + pending_.dx,
                                   bounds.box.x_end());
      const double y_hi = std::max(pending_.y + pending_.dy,
                                   bounds.box.y_end());
      const double t_hi = std::max(pending_.t + pending_.dt,
                                   bounds.interval.t_end());
      pending_.x = std::min(pending_.x, bounds.box.x);
      pending_.y = std::min(pending_.y, bounds.box.y);
      pending_.t = std::min(pending_.t, bounds.interval.t);
      pending_.dx = x_hi - pending_.x;
      pending_.dy = y_hi - pending_.y;
      pending_.dt = t_hi - pending_.t;
    }
    pending_.min_key = std::min(pending_.min_key, key);
    pending_.max_key = std::max(pending_.max_key, key);
  }
  summaries_.push_back(summary);

  put_u32(block_buf_, fingerprint.group_size());
  put_u32(block_buf_, summary.sample_count);
  for (const UserId member : fingerprint.members()) {
    put_u32(block_buf_, member);
  }
  for (const Sample& s : fingerprint.samples()) {
    put_f64(block_buf_, s.sigma.x);
    put_f64(block_buf_, s.sigma.dx);
    put_f64(block_buf_, s.sigma.y);
    put_f64(block_buf_, s.sigma.dy);
    put_f64(block_buf_, s.tau.t);
    put_f64(block_buf_, s.tau.dt);
    put_u32(block_buf_, s.contributors);
  }
  ++block_count_;
  if (block_count_ >= block_fingerprints_) flush_block();
}

void GlovebinWriter::flush_block() {
  if (block_count_ == 0) return;
  if (pending_.min_key > pending_.max_key) {
    // Block of empty fingerprints only: no key range to publish.
    pending_.min_key = 0;
    pending_.max_key = 0;
  }
  pending_.offset = payload_offset_;
  pending_.bytes = static_cast<std::uint64_t>(block_buf_.size());
  pending_.count = block_count_;
  blocks_.push_back(pending_);
  out_.write(block_buf_.data(),
             static_cast<std::streamsize>(block_buf_.size()));
  payload_offset_ += block_buf_.size();
  block_buf_.clear();
  block_count_ = 0;
}

void GlovebinWriter::finish() {
  if (!begun_) {
    throw std::logic_error{path_ + ": GlovebinWriter::finish before begin"};
  }
  if (finished_) return;
  finished_ = true;
  flush_block();

  std::string footer;
  const std::uint64_t summaries_offset = payload_offset_;
  for (const FingerprintSummary& s : summaries_) append_summary(footer, s);
  const std::uint64_t index_offset = summaries_offset + footer.size();
  for (const GlovebinBlock& b : blocks_) append_block(footer, b);
  const std::uint64_t name_offset = summaries_offset + footer.size();
  put_u32(footer, static_cast<std::uint32_t>(name_.size()));
  footer.append(name_);

  put_u64(footer, static_cast<std::uint64_t>(summaries_.size()));
  put_u64(footer, static_cast<std::uint64_t>(blocks_.size()));
  put_u64(footer, summaries_offset);
  put_u64(footer, index_offset);
  put_u64(footer, name_offset);
  footer.append(kMagic, sizeof kMagic);

  out_.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  out_.flush();
  if (!out_) throw std::runtime_error{"failed writing: " + path_};
}

// --- Reader -------------------------------------------------------------

namespace {

[[noreturn]] void bad_file(const std::string& path, const std::string& what) {
  throw std::runtime_error{path + ": " + what};
}

}  // namespace

GlovebinReader::GlovebinReader(std::string path) : path_{std::move(path)} {
  std::uint64_t file_size = 0;
#ifdef GLOVE_GLOVEBIN_POSIX
  fd_.fd = ::open(path_.c_str(), O_RDONLY);
  if (fd_.fd < 0) bad_file(path_, "cannot open for reading");
  struct stat st{};
  if (::fstat(fd_.fd, &st) != 0) bad_file(path_, "cannot stat");
  file_size = static_cast<std::uint64_t>(st.st_size);
  const auto read_exact = [&](std::uint64_t offset, std::uint64_t len,
                              void* dst) {
    std::uint64_t done = 0;
    while (done < len) {
      const ::ssize_t got =
          ::pread(fd_.fd, static_cast<char*>(dst) + done, len - done,
                  static_cast<::off_t>(offset + done));
      if (got <= 0) bad_file(path_, "truncated read");
      done += static_cast<std::uint64_t>(got);
    }
  };
#else
  std::ifstream probe{path_, std::ios::binary | std::ios::ate};
  if (!probe) bad_file(path_, "cannot open for reading");
  file_size = static_cast<std::uint64_t>(probe.tellg());
  const auto read_exact = [&](std::uint64_t offset, std::uint64_t len,
                              void* dst) {
    probe.seekg(static_cast<std::streamoff>(offset));
    probe.read(static_cast<char*>(dst), static_cast<std::streamsize>(len));
    if (static_cast<std::uint64_t>(probe.gcount()) != len) {
      bad_file(path_, "truncated read");
    }
  };
#endif

  if (file_size < kHeaderBytes + kTrailerBytes) {
    bad_file(path_, "not a glovebin file (too short)");
  }
  unsigned char header[kHeaderBytes];
  read_exact(0, kHeaderBytes, header);
  if (std::memcmp(header, kMagic, sizeof kMagic) != 0) {
    bad_file(path_, "not a glovebin file (bad magic)");
  }
  const std::uint32_t version = get_u32(header + 8);
  if (version != kGlovebinVersion) {
    bad_file(path_, "unsupported glovebin version " +
                        std::to_string(version));
  }

  unsigned char trailer[kTrailerBytes];
  read_exact(file_size - kTrailerBytes, kTrailerBytes, trailer);
  if (std::memcmp(trailer + 40, kMagic, sizeof kMagic) != 0) {
    bad_file(path_, "corrupt glovebin trailer (bad magic)");
  }
  const std::uint64_t n = get_u64(trailer);
  const std::uint64_t m = get_u64(trailer + 8);
  const std::uint64_t summaries_offset = get_u64(trailer + 16);
  const std::uint64_t index_offset = get_u64(trailer + 24);
  const std::uint64_t name_offset = get_u64(trailer + 32);
  const std::uint64_t trailer_offset = file_size - kTrailerBytes;
  if (summaries_offset < kHeaderBytes || summaries_offset > index_offset ||
      index_offset > name_offset || name_offset + 4 > trailer_offset ||
      index_offset - summaries_offset != n * kSummaryBytes ||
      name_offset - index_offset != m * kBlockEntryBytes) {
    bad_file(path_, "corrupt glovebin trailer (inconsistent offsets)");
  }

  std::vector<unsigned char> footer(
      static_cast<std::size_t>(trailer_offset - summaries_offset));
  read_exact(summaries_offset, footer.size(), footer.data());
  const unsigned char* p = footer.data();

  summaries_.resize(static_cast<std::size_t>(n));
  for (FingerprintSummary& s : summaries_) {
    s.x = get_f64(p);
    s.dx = get_f64(p + 8);
    s.y = get_f64(p + 16);
    s.dy = get_f64(p + 24);
    s.t = get_f64(p + 32);
    s.dt = get_f64(p + 40);
    s.group_size = get_u32(p + 48);
    s.sample_count = get_u32(p + 52);
    p += kSummaryBytes;
  }

  blocks_.resize(static_cast<std::size_t>(m));
  std::uint64_t expected_first = 0;
  std::uint64_t previous_end = kHeaderBytes;
  for (GlovebinBlock& b : blocks_) {
    b.offset = get_u64(p);
    b.bytes = get_u64(p + 8);
    b.first = get_u64(p + 16);
    b.count = get_u64(p + 24);
    b.min_key = get_u64(p + 32);
    b.max_key = get_u64(p + 40);
    b.x = get_f64(p + 48);
    b.dx = get_f64(p + 56);
    b.y = get_f64(p + 64);
    b.dy = get_f64(p + 72);
    b.t = get_f64(p + 80);
    b.dt = get_f64(p + 88);
    p += kBlockEntryBytes;
    if (b.first != expected_first || b.count == 0 ||
        b.offset != previous_end || b.offset + b.bytes > summaries_offset) {
      bad_file(path_, "corrupt glovebin block index");
    }
    expected_first += b.count;
    previous_end = b.offset + b.bytes;
  }
  if (expected_first != n) {
    bad_file(path_, "corrupt glovebin block index (fingerprint count)");
  }

  const std::uint32_t name_len = get_u32(p);
  p += 4;
  if (name_offset + 4 + name_len != trailer_offset) {
    bad_file(path_, "corrupt glovebin trailer (name length)");
  }
  name_.assign(reinterpret_cast<const char*>(p), name_len);
  check_dataset_name(name_, path_);
}

GlovebinReader::Descriptor::~Descriptor() {
#ifdef GLOVE_GLOVEBIN_POSIX
  if (fd >= 0) ::close(fd);
#endif
}

std::size_t GlovebinReader::block_of(std::uint64_t id) const {
  if (id >= fingerprint_count()) {
    throw std::out_of_range{path_ + ": fingerprint id out of range"};
  }
  const auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), id,
      [](std::uint64_t value, const GlovebinBlock& b) {
        return value < b.first;
      });
  return static_cast<std::size_t>(it - blocks_.begin()) - 1;
}

void GlovebinReader::read_blocks(
    std::size_t first_block, std::size_t last_block,
    const std::function<void(std::uint64_t, Fingerprint&&)>& fn) {
  if (first_block >= last_block) return;
  if (last_block > blocks_.size()) {
    throw std::out_of_range{path_ + ": block range out of range"};
  }
  const std::uint64_t range_begin = blocks_[first_block].offset;
  const std::uint64_t range_end =
      blocks_[last_block - 1].offset + blocks_[last_block - 1].bytes;

  const unsigned char* base = nullptr;
  std::vector<unsigned char> buffer;  // non-mmap fallback
#ifdef GLOVE_GLOVEBIN_POSIX
  const std::uint64_t page =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t map_begin = range_begin & ~(page - 1);
  const std::uint64_t map_len = range_end - map_begin;
  void* mapped = ::mmap(nullptr, static_cast<std::size_t>(map_len), PROT_READ,
                        MAP_PRIVATE, fd_.fd, static_cast<::off_t>(map_begin));
  if (mapped == MAP_FAILED) bad_file(path_, "mmap failed");
  base = static_cast<const unsigned char*>(mapped) +
         (range_begin - map_begin);
  bytes_mapped_ += map_len;
#else
  buffer.resize(static_cast<std::size_t>(range_end - range_begin));
  std::ifstream in{path_, std::ios::binary};
  if (!in) bad_file(path_, "cannot open for reading");
  in.seekg(static_cast<std::streamoff>(range_begin));
  in.read(reinterpret_cast<char*>(buffer.data()),
          static_cast<std::streamsize>(buffer.size()));
  if (static_cast<std::uint64_t>(in.gcount()) != buffer.size()) {
    bad_file(path_, "truncated read");
  }
  base = buffer.data();
  bytes_mapped_ += buffer.size();
#endif

  try {
    for (std::size_t bi = first_block; bi < last_block; ++bi) {
      const GlovebinBlock& block = blocks_[bi];
      const unsigned char* cursor = base + (block.offset - range_begin);
      const unsigned char* end = cursor + block.bytes;
      const std::string context =
          path_ + ": corrupt glovebin block " + std::to_string(bi);
      for (std::uint64_t i = 0; i < block.count; ++i) {
        if (end - cursor < 8) throw util::DatasetError{context};
        const std::uint32_t member_count = get_u32(cursor);
        const std::uint32_t sample_count = get_u32(cursor + 4);
        cursor += 8;
        const std::uint64_t need =
            std::uint64_t{member_count} * 4 +
            std::uint64_t{sample_count} * kSampleBytes;
        if (member_count == 0 ||
            static_cast<std::uint64_t>(end - cursor) < need) {
          throw util::DatasetError{context};
        }
        std::vector<UserId> members;
        members.reserve(member_count);
        for (std::uint32_t j = 0; j < member_count; ++j) {
          members.push_back(get_u32(cursor));
          cursor += 4;
        }
        check_members(members, context);
        std::vector<Sample> samples;
        samples.resize(sample_count);
        for (std::size_t j = 0; j < samples.size(); ++j) {
          Sample& s = samples[j];
          s.sigma.x = get_f64(cursor);
          s.sigma.dx = get_f64(cursor + 8);
          s.sigma.y = get_f64(cursor + 16);
          s.sigma.dy = get_f64(cursor + 24);
          s.tau.t = get_f64(cursor + 32);
          s.tau.dt = get_f64(cursor + 40);
          s.contributors = get_u32(cursor + 48);
          if (s.contributors == 0) throw util::DatasetError{context};
          check_sample(s, context);
          // from_time_sorted trusts the stored order, and the stretch
          // kernel's time-window pruning relies on it.
          if (j > 0 && by_time(s, samples[j - 1])) {
            throw util::DatasetError{context + ": samples out of time order"};
          }
          cursor += kSampleBytes;
        }
        Fingerprint fp = Fingerprint::from_time_sorted(std::move(members),
                                                       std::move(samples));
        // Pass 1 of a sharded run plans from the footer alone, so the
        // stored summary must be fp's, bit for bit.
        const std::uint64_t id = block.first + i;
        const FingerprintSummary decoded =
            summary_of(fp, core::fingerprint_bounds(fp));
        if (std::memcmp(&decoded, &summaries_[static_cast<std::size_t>(id)],
                        sizeof decoded) != 0) {
          throw util::DatasetError{context + ": fingerprint " +
                                   std::to_string(id) +
                                   " does not match its footer summary"};
        }
        fn(id, std::move(fp));
      }
      if (cursor != end) throw util::DatasetError{context};
    }
  } catch (...) {
#ifdef GLOVE_GLOVEBIN_POSIX
    ::munmap(const_cast<unsigned char*>(base - (range_begin - map_begin)),
             static_cast<std::size_t>(map_len));
#endif
    blocks_read_ += last_block - first_block;
    throw;
  }
#ifdef GLOVE_GLOVEBIN_POSIX
  ::munmap(const_cast<unsigned char*>(base - (range_begin - map_begin)),
           static_cast<std::size_t>(map_len));
#endif
  blocks_read_ += last_block - first_block;
}

// --- Bulk writer ----------------------------------------------------------

void write_dataset_glovebin_file(const std::string& path,
                                 const FingerprintDataset& data,
                                 std::uint32_t block_fingerprints) {
  GlovebinWriter writer{path, block_fingerprints};
  writer.begin(data.name());
  for (const Fingerprint& fp : data.fingerprints()) writer.write(fp);
  writer.finish();
}

}  // namespace glove::cdr
