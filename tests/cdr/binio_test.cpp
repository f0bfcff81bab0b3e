// glovebin format: lossless round-trips, footer index consistency, magic
// sniffing and rejection of corrupt files.  The format's contract is
// byte-exactness — a dataset written to glovebin and read back must
// serialize to the identical CSV text — so these tests compare full CSV
// serializations, not tolerant extents.

#include "glove/cdr/binio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/temp_dir.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/scalability.hpp"
#include "glove/util/dataset_error.hpp"

namespace glove::cdr {
namespace {

FingerprintDataset awkward_dataset() {
  // Values with no short decimal form plus an empty-sample fingerprint:
  // the cases the binary format exists to keep exact.
  std::vector<Fingerprint> fingerprints;
  fingerprints.emplace_back(
      3u, std::vector<Sample>{
              Sample{SpatialExtent{1.0 / 3.0, 0.1, -7.3e5, 2e-3},
                     TemporalExtent{123456.789012345, 1.0 / 7.0}, 2u},
              Sample{SpatialExtent{1e9 + 0.25, 5e-324, 0.1 + 0.2, 1e22},
                     TemporalExtent{-0.0, 2.2250738585072014e-308}, 1u}});
  fingerprints.emplace_back(7u, std::vector<Sample>{});  // suppressed user
  fingerprints.emplace_back(
      std::vector<UserId>{9u, 4u},
      std::vector<Sample>{Sample{SpatialExtent{0.0, 100.0, 0.0, 100.0},
                                 TemporalExtent{5.0, 1.0}, 3u}});
  return FingerprintDataset{std::move(fingerprints), "awkward"};
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in},
          std::istreambuf_iterator<char>{}};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Glovebin, RoundTripIsByteExact) {
  test::TempDir dir;
  for (const FingerprintDataset& data :
       {awkward_dataset(), test::grouped_io_dataset(),
        test::random_dataset(40, 11)}) {
    const std::string path = dir.file(data.name() + ".glovebin");
    write_dataset_glovebin_file(path, data);
    const FingerprintDataset back = test::read_dataset(path);
    EXPECT_EQ(back.name(), data.name());
    ASSERT_EQ(back.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(back[i].members(), data[i].members()))
          << "fingerprint " << i;
    }
    // CSV text equality is the strongest statement of losslessness: every
    // double survived bit for bit and every sample kept its position.
    EXPECT_EQ(test::dataset_to_csv(back), test::dataset_to_csv(data))
        << data.name();
  }
}

TEST(Glovebin, NameWithALineBreakIsRejectedOnWriteAndOnOpen) {
  // The stored name becomes line 1 of a CSV release made from the file.
  test::TempDir dir;
  GlovebinWriter writer{dir.file("write.glovebin")};
  EXPECT_THROW(writer.begin("x\n9,0,1,"), util::DatasetError);

  // A footer holding one anyway: patch an 8-byte name just before the
  // 48-byte trailer.
  const std::string path = dir.file("footer.glovebin");
  write_dataset_glovebin_file(path, FingerprintDataset{{}, "x_9,0,1,"});
  std::string bytes = read_file(path);
  const std::size_t name_at = bytes.size() - 48 - 8;
  ASSERT_EQ(bytes.substr(name_at, 8), "x_9,0,1,");
  bytes[name_at + 1] = '\n';
  write_file(path, bytes);
  try {
    GlovebinReader reader{path};
    FAIL() << "expected util::DatasetError";
  } catch (const util::DatasetError& e) {
    EXPECT_NE(std::string{e.what()}.find(path + ": dataset name"),
              std::string::npos)
        << e.what();
  }
}

TEST(Glovebin, SniffsMagicBytes) {
  test::TempDir dir;
  const std::string bin = dir.file("data.glovebin");
  write_dataset_glovebin_file(bin, test::grouped_io_dataset());
  EXPECT_TRUE(is_glovebin_file(bin));

  const std::string csv = dir.file("data.csv");
  write_dataset_file(csv, test::grouped_io_dataset());
  EXPECT_FALSE(is_glovebin_file(csv));

  EXPECT_FALSE(is_glovebin_file(dir.file("missing.glovebin")));
  const std::string stub = dir.file("short.glovebin");
  write_file(stub, "glo");  // shorter than the magic
  EXPECT_FALSE(is_glovebin_file(stub));
}

TEST(Glovebin, SummariesMatchFingerprintBoundsBitExactly) {
  test::TempDir dir;
  const FingerprintDataset data = test::random_dataset(25, 3);
  const std::string path = dir.file("summaries.glovebin");
  write_dataset_glovebin_file(path, data);

  GlovebinReader reader{path};
  ASSERT_EQ(reader.fingerprint_count(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const core::FingerprintBounds bounds = core::fingerprint_bounds(data[i]);
    const FingerprintSummary& s = reader.summaries()[i];
    EXPECT_EQ(s.x, bounds.box.x);
    EXPECT_EQ(s.dx, bounds.box.dx);
    EXPECT_EQ(s.y, bounds.box.y);
    EXPECT_EQ(s.dy, bounds.box.dy);
    EXPECT_EQ(s.t, bounds.interval.t);
    EXPECT_EQ(s.dt, bounds.interval.dt);
    EXPECT_EQ(s.group_size, data[i].group_size());
    EXPECT_EQ(s.sample_count, data[i].size());
  }
}

TEST(Glovebin, BlockIndexIsContiguousAndSeekable) {
  test::TempDir dir;
  const FingerprintDataset data = test::random_dataset(10, 7);
  const std::string path = dir.file("blocks.glovebin");
  {
    GlovebinWriter writer{path, /*block_fingerprints=*/4};
    writer.begin(data.name());
    for (const Fingerprint& fp : data.fingerprints()) writer.write(fp);
    writer.finish();
  }

  GlovebinReader reader{path};
  ASSERT_EQ(reader.block_count(), 3u);  // 4 + 4 + 2 fingerprints
  std::uint64_t next_first = 0;
  for (const GlovebinBlock& block : reader.block_index()) {
    EXPECT_EQ(block.first, next_first);
    EXPECT_GT(block.count, 0u);
    next_first += block.count;
  }
  EXPECT_EQ(next_first, data.size());
  for (std::uint64_t id = 0; id < data.size(); ++id) {
    const GlovebinBlock& b = reader.block_index()[reader.block_of(id)];
    EXPECT_GE(id, b.first);
    EXPECT_LT(id, b.first + b.count);
  }

  // Seek the middle block only: indices line up and io is accounted.
  std::vector<std::uint64_t> seen;
  reader.read_blocks(1, 2, [&](std::uint64_t id, Fingerprint&& fp) {
    seen.push_back(id);
    EXPECT_TRUE(std::ranges::equal(fp.members(), data[id].members()));
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{4, 5, 6, 7}));
  EXPECT_EQ(reader.blocks_read(), 1u);
  EXPECT_GT(reader.bytes_mapped(), 0u);
}

TEST(Glovebin, WriterFailsFastOnUnwritablePath) {
  // An unopenable target fails at construction; an openable-but-unwritable
  // one (full device) no later than begin(), which flushes the header.
  EXPECT_THROW(GlovebinWriter{"/nonexistent-dir/out.glovebin"},
               std::runtime_error);
  if (std::ifstream{"/dev/full"}.good()) {
    GlovebinWriter writer{"/dev/full"};
    EXPECT_THROW(writer.begin("x"), std::runtime_error);
  }
}

TEST(Glovebin, ReaderRejectsMissingAndStructurallyBrokenFiles) {
  test::TempDir dir;
  EXPECT_THROW(GlovebinReader{dir.file("missing.glovebin")},
               std::runtime_error);

  const std::string path = dir.file("data.glovebin");
  write_dataset_glovebin_file(path, test::random_dataset(10, 2));
  const std::string bytes = read_file(path);

  // Truncation loses the trailer.
  const std::string truncated = dir.file("truncated.glovebin");
  write_file(truncated, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(GlovebinReader{truncated}, std::runtime_error);

  // A flipped trailer magic byte means the footer offsets are untrusted.
  const std::string bad_trailer = dir.file("bad_trailer.glovebin");
  std::string flipped = bytes;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x5a);
  write_file(bad_trailer, flipped);
  EXPECT_THROW(GlovebinReader{bad_trailer}, std::runtime_error);

  // A wrong version is a different format generation, not corruption we
  // can parse around.
  const std::string bad_version = dir.file("bad_version.glovebin");
  std::string versioned = bytes;
  versioned[8] = static_cast<char>(kGlovebinVersion + 1);
  write_file(bad_version, versioned);
  EXPECT_THROW(GlovebinReader{bad_version}, std::runtime_error);
}

TEST(Glovebin, RejectedOpenClosesTheFile) {
  // The reader validates a file after opening it; each rejected open used
  // to leak its descriptor.
  if (!std::filesystem::exists("/proc/self/fd")) GTEST_SKIP();
  test::TempDir dir;
  const std::string path = dir.file("bad.glovebin");
  write_file(path, std::string(100, 'x'));  // no magic
  const auto open_files = [] {
    return std::distance(std::filesystem::directory_iterator{"/proc/self/fd"},
                         std::filesystem::directory_iterator{});
  };
  const auto before = open_files();
  for (int i = 0; i < 20; ++i) {
    EXPECT_THROW(GlovebinReader{path}, std::runtime_error);
  }
  EXPECT_EQ(open_files(), before);
}

TEST(Glovebin, ReaderRejectsCorruptBlockPayload) {
  test::TempDir dir;
  std::vector<Fingerprint> fingerprints;
  fingerprints.emplace_back(
      1u, std::vector<Sample>{Sample{SpatialExtent{0.0, 1.0, 0.0, 1.0},
                                     TemporalExtent{0.0, 1.0}, 2u}});
  const FingerprintDataset data{std::move(fingerprints), "tiny"};
  const std::string path = dir.file("corrupt.glovebin");
  write_dataset_glovebin_file(path, data);

  // Zero the sample's contributors count (the last 4 payload bytes of the
  // only record: header 16 B, then member_count + sample_count + one
  // member + six doubles, contributors last).
  std::string bytes = read_file(path);
  const std::size_t contributors_at = 16 + 4 + 4 + 4 + 6 * 8;
  for (std::size_t i = 0; i < 4; ++i) bytes[contributors_at + i] = '\0';
  write_file(path, bytes);

  GlovebinReader reader{path};  // footer is intact, open succeeds
  try {
    (void)test::read_dataset(path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("corrupt glovebin block 0"),
              std::string::npos)
        << e.what();
  }
}

/// A one-fingerprint glovebin file with samples at t = 0 and t = 10.  The
/// record starts after the 16-byte header: member_count, sample_count, one
/// member id, then six doubles and a u32 contributors count per sample.
std::string two_sample_glovebin(const test::TempDir& dir) {
  const std::string path = dir.file("two_samples.glovebin");
  write_dataset_glovebin_file(
      path, FingerprintDataset{{Fingerprint{1u, {test::cell(0, 0, 0),
                                                 test::cell(500, 0, 10)}}},
                               "two"});
  return path;
}

constexpr std::size_t kFirstSampleAt = 16 + 4 + 4 + 4;
constexpr std::size_t kSampleBytes = 6 * 8 + 4;

/// Overwrites the `field`-th double (0-5: x, dx, y, dy, t, dt) of sample
/// `sample` with `value`, little-endian.
void patch_double(std::string& bytes, std::size_t sample, std::size_t field,
                  double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const std::size_t at = kFirstSampleAt + sample * kSampleBytes + 8 * field;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>((bits >> (8 * i)) & 0xffu);
  }
}

void expect_block_rejected(const std::string& path, const std::string& what) {
  try {
    (void)test::read_dataset(path);
    ADD_FAILURE() << "expected std::invalid_argument (" << what << ")";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path + ": corrupt glovebin block 0"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

TEST(Glovebin, ReaderRejectsNonFiniteSampleFields) {
  test::TempDir dir;
  const std::string path = two_sample_glovebin(dir);
  const std::string valid = read_file(path);
  for (std::size_t field = 0; field < 6; ++field) {
    for (const double value : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
      std::string bytes = valid;
      patch_double(bytes, 1, field, value);
      write_file(path, bytes);
      expect_block_rejected(path, "must be finite");
    }
  }
}

TEST(Glovebin, ReaderRejectsNegativeExtents) {
  test::TempDir dir;
  const std::string path = two_sample_glovebin(dir);
  const std::string valid = read_file(path);
  for (const std::size_t field : {1u, 3u, 5u}) {  // dx, dy, dt
    std::string bytes = valid;
    patch_double(bytes, 0, field, -1.0);
    write_file(path, bytes);
    expect_block_rejected(path, "must be non-negative");
  }
}

TEST(Glovebin, ReaderRejectsSamplesOutOfTimeOrder) {
  // Readers hand samples to Fingerprint::from_time_sorted without
  // re-sorting, and the stretch kernel prunes by that order.
  test::TempDir dir;
  const std::string path = two_sample_glovebin(dir);
  std::string bytes = read_file(path);
  std::swap_ranges(bytes.begin() + kFirstSampleAt,
                   bytes.begin() + kFirstSampleAt + kSampleBytes,
                   bytes.begin() + kFirstSampleAt + kSampleBytes);
  write_file(path, bytes);
  expect_block_rejected(path, "out of time order");
}

TEST(Glovebin, ReaderRejectsRepeatedMemberIds) {
  // The writer stores a {5, 5} group as given; the reader refuses it with
  // the CSV decoder's member check, as it would publish user 5 alone.
  test::TempDir dir;
  const std::string path = dir.file("repeated.glovebin");
  const Fingerprint repeated{{5u, 5u}, {test::cell(0, 0, 0)}};
  write_dataset_glovebin_file(path, FingerprintDataset{{repeated}, "twice"});
  expect_block_rejected(path, "duplicate user id 5");
}

/// Overwrites `width` bytes at `at` with `value`, little-endian.
void patch_le(std::string& bytes, std::size_t at, std::uint64_t value,
              std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xffu);
  }
}

TEST(Glovebin, ReaderRejectsFingerprintsThatContradictTheirSummary) {
  // A sharded run plans from the footer summaries alone, so every decoded
  // fingerprint must equal its summary bit for bit: a patched bounds
  // field (one ulp off), group size or sample count is refused once its
  // block is decoded, while the footer still opens.
  test::TempDir dir;
  const std::string path = two_sample_glovebin(dir);
  const std::string valid = read_file(path);
  // The trailer's third u64 is the summaries' offset; a summary is six
  // doubles (x, dx, y, dy, t, dt), then group size and sample count.
  std::size_t summaries_at = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto byte = static_cast<unsigned char>(valid[valid.size() - 32 + i]);
    summaries_at |= std::size_t{byte} << (8 * i);
  }
  FingerprintSummary s;
  {
    const GlovebinReader intact{path};
    s = intact.summaries()[0];
  }
  ASSERT_EQ(s.group_size, 1u);
  ASSERT_EQ(s.sample_count, 2u);
  const double fields[] = {s.x, s.dx, s.y, s.dy, s.t, s.dt};
  for (std::size_t field = 0; field < 6; ++field) {
    std::string bytes = valid;
    patch_le(bytes, summaries_at + 8 * field,
             std::bit_cast<std::uint64_t>(std::nextafter(
                 fields[field], std::numeric_limits<double>::infinity())),
             8);
    write_file(path, bytes);
    expect_block_rejected(path, "fingerprint 0 does not match its footer");
  }
  for (const auto& [at, value] :
       {std::pair<std::size_t, std::uint32_t>{48, 5},
        std::pair<std::size_t, std::uint32_t>{52, 3}}) {
    std::string bytes = valid;
    patch_le(bytes, summaries_at + at, value, 4);
    write_file(path, bytes);
    GlovebinReader reader{path};  // the footer alone is consistent
    EXPECT_EQ(reader.summaries()[0].group_size, at == 48 ? 5u : 1u);
    expect_block_rejected(path, "fingerprint 0 does not match its footer");
  }
}

TEST(Glovebin, FromTimeSortedPreservesSampleOrderAndRejectsEmptyGroups) {
  // Two samples tied on time: a deserializer must not re-sort (std::sort
  // is unstable) or tied samples could swap and break byte-exactness.
  const Sample a{SpatialExtent{0.0, 1.0, 0.0, 1.0}, TemporalExtent{5.0, 1.0},
                 1u};
  const Sample b{SpatialExtent{9.0, 1.0, 9.0, 1.0}, TemporalExtent{5.0, 1.0},
                 1u};
  const Fingerprint fp =
      Fingerprint::from_time_sorted({2u, 1u}, {b, a});  // b first, kept
  ASSERT_EQ(fp.size(), 2u);
  EXPECT_EQ(fp.samples()[0], b);
  EXPECT_EQ(fp.samples()[1], a);
  EXPECT_THROW((void)Fingerprint::from_time_sorted({}, {a}),
               std::invalid_argument);
}

}  // namespace
}  // namespace glove::cdr
