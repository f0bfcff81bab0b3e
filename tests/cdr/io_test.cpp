#include "glove/cdr/io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/temp_dir.hpp"
#include "glove/util/dataset_error.hpp"

namespace glove::cdr {
namespace {

TEST(CdrIo, EventsRoundTrip) {
  const std::vector<CdrEvent> events{
      {0u, 12.5, geo::LatLon{5.345, -4.024}},
      {3u, 999.0, geo::LatLon{14.69, -17.44}},
  };
  std::ostringstream out;
  write_cdr_csv(out, events);
  std::istringstream in{out.str()};
  const std::vector<CdrEvent> back = read_cdr_csv(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].user, 0u);
  EXPECT_DOUBLE_EQ(back[0].time_min, 12.5);
  EXPECT_NEAR(back[1].antenna.lat_deg, 14.69, 1e-9);
  EXPECT_NEAR(back[1].antenna.lon_deg, -17.44, 1e-9);
}

TEST(CdrIo, RejectsWrongFieldCount) {
  std::istringstream in{"1,2,3\n"};
  EXPECT_THROW((void)read_cdr_csv(in), std::invalid_argument);
}

TEST(CdrIo, RejectsNegativeUserId) {
  std::istringstream in{"-1,0,5.0,4.0\n"};
  EXPECT_THROW((void)read_cdr_csv(in), std::invalid_argument);
}

TEST(CdrIo, RejectsMalformedNumbers) {
  std::istringstream in{"1,abc,5.0,4.0\n"};
  EXPECT_THROW((void)read_cdr_csv(in), std::invalid_argument);
}

TEST(DatasetIo, RoundTripPreservesStructure) {
  const FingerprintDataset data = test::grouped_io_dataset();
  std::ostringstream out;
  write_dataset_csv(out, data);
  const FingerprintDataset back = test::read_dataset_text(out.str());

  EXPECT_EQ(back.name(), "io-test");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].group_size(), 2u);
  EXPECT_EQ(back[0].members()[0], 1u);
  EXPECT_EQ(back[0].members()[1], 2u);
  EXPECT_EQ(back[1].group_size(), 1u);
  ASSERT_EQ(back[0].size(), 2u);

  const Sample& s = back[0].samples()[1];
  EXPECT_DOUBLE_EQ(s.sigma.dx, 500.0);
  EXPECT_DOUBLE_EQ(s.tau.dt, 30.0);
  EXPECT_EQ(s.contributors, 4u);
}

TEST(DatasetIo, RejectsWrongFieldCount) {
  EXPECT_THROW((void)test::read_dataset_text("1,2,3,4\n"),
               std::invalid_argument);
}

TEST(DatasetIo, RejectsNonPositiveContributors) {
  EXPECT_THROW((void)test::read_dataset_text("1,0,100,0,100,0,1,0\n"),
               std::invalid_argument);
}

TEST(DatasetIo, RejectsIdsAndCountsTooLargeForTheirField) {
  // Both used to be truncated to 32 bits: user 4294967296 became user 0,
  // 4294967297 contributors became 1.
  for (const auto& [text, what] :
       {std::pair{"4294967296,0,100,0,100,5,1,1\n", "member id"},
        std::pair{"7,0,100,0,100,5,1,4294967297\n", "contributors"}}) {
    try {
      (void)test::read_dataset_text(std::string{"7,0,100,0,100,1,1,1\n"} +
                                    text);
      ADD_FAILURE() << "expected std::invalid_argument for: " << text;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(what), std::string::npos) << message;
      EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    }
  }
}

TEST(DatasetIo, ParsesJoinedMembers) {
  const FingerprintDataset data =
      test::read_dataset_text("10+20+30,0,100,0,100,5,1,1\n");
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0].group_size(), 3u);
  EXPECT_EQ(data[0].members()[2], 30u);
}

TEST(DatasetIo, RejectsEmptyMembersField) {
  EXPECT_THROW((void)test::read_dataset_text(",0,100,0,100,5,1,1\n"),
               std::invalid_argument);
}

TEST(DatasetIo, RejectsDuplicateMemberIds) {
  // A duplicated id would double-count the group size k relies on.
  for (const char* text : {"7+7,0,100,0,100,5,1,1\n",
                           "3+7+3,0,100,0,100,5,1,1\n"}) {
    try {
      (void)test::read_dataset_text(text);
      FAIL() << "expected std::invalid_argument for: " << text;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("duplicate user id"), std::string::npos)
          << message;
      EXPECT_NE(message.find("line 1"), std::string::npos) << message;
    }
  }
}

TEST(DatasetIo, WriteReadWriteIsIdempotent) {
  // Doubles with no short decimal form (thirds, 0.1-style fractions,
  // huge/tiny magnitudes): the shortest-round-trip formatter must reparse
  // to the exact same bits, so a second write produces the same bytes.
  // The previous 10-significant-digit formatting failed this.
  std::vector<Fingerprint> fingerprints;
  fingerprints.emplace_back(
      1u, std::vector<Sample>{
              Sample{SpatialExtent{1.0 / 3.0, 0.1, -7.3e5, 2e-3},
                     TemporalExtent{123456.789012345, 1.0 / 7.0}, 2u},
              Sample{SpatialExtent{1e9 + 0.25, 5e-324, 0.30000000000000004,
                                   1e22},
                     TemporalExtent{-0.0, 2.2250738585072014e-308}, 1u}});
  const FingerprintDataset data{std::move(fingerprints), "awkward"};

  std::ostringstream first;
  write_dataset_csv(first, data);
  const FingerprintDataset back = test::read_dataset_text(first.str());
  ASSERT_EQ(back.size(), 1u);
  ASSERT_EQ(back[0].size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back[0].samples()[i], data[0].samples()[i]) << "sample " << i;
  }

  std::ostringstream second;
  DatasetStreamWriter writer{second};
  writer.begin(data.name());
  for (const Fingerprint& fp : back.fingerprints()) writer.write(fp);
  std::ostringstream expected;
  DatasetStreamWriter expected_writer{expected};
  expected_writer.begin(data.name());
  for (const Fingerprint& fp : data.fingerprints()) expected_writer.write(fp);
  EXPECT_EQ(second.str(), expected.str());
}

TEST(DatasetIo, NameReadsBackFromTheHeaderComment) {
  // A CRLF file's '\r' is not part of the name; a file whose comments
  // before the first row hold no header is unnamed.
  for (const auto& [text, name] :
       {std::pair{"# glove fingerprint dataset: city\n# members\n7,0\n",
                  "city"},
        std::pair{"# glove fingerprint dataset: city\r\n7,0\r\n", "city"},
        std::pair{"# note\n\n# glove fingerprint dataset:  a b \n", " a b "},
        std::pair{"7,0\n# glove fingerprint dataset: late\n", ""},
        std::pair{"", ""}}) {
    std::istringstream in{text};
    EXPECT_EQ(read_csv_dataset_name(in), name) << text;
  }
}

TEST(DatasetIo, WriterStoresTheNameVerbatimAndRejectsLineBreaks) {
  for (const std::string name : {"", "civ-like-sharded-k2"}) {
    std::ostringstream out;
    write_dataset_csv(out, FingerprintDataset{{}, name});
    std::istringstream in{out.str()};
    EXPECT_EQ(read_csv_dataset_name(in), name);
  }
  // A name is line 1 of the file: a break in it would start data rows.
  for (const char* name : {"x\n9,0,1,", "x\ry"}) {
    std::ostringstream out;
    DatasetStreamWriter writer{out, "out.csv"};
    try {
      writer.begin(name);
      ADD_FAILURE() << "expected util::DatasetError";
    } catch (const util::DatasetError& e) {
      EXPECT_NE(std::string{e.what()}.find("out.csv: dataset name"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(out.str(), "");
  }
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW((void)read_cdr_file("/nonexistent/path.csv"),
               std::runtime_error);
  EXPECT_THROW((void)test::read_dataset("/nonexistent/path.csv"),
               std::runtime_error);
}

TEST(FileIo, WriteAndReadBack) {
  const test::TempDir dir;
  const FingerprintDataset data = test::grouped_io_dataset();
  const FingerprintDataset back = test::dataset_file_roundtrip(dir, data);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.total_samples(), 3u);
  test::expect_datasets_near(back, data);
}

TEST(FileIo, TempDirKeepsConcurrentSuitesApart) {
  const test::TempDir a;
  const test::TempDir b;
  EXPECT_NE(a.path(), b.path());
  write_dataset_file(a.file("data.csv"), test::grouped_io_dataset());
  EXPECT_THROW((void)test::read_dataset(b.file("data.csv")),
               std::runtime_error);
}

TEST(DatasetIo, SerializationMatchesGoldenFile) {
  // Locks the on-disk CSV format: field order, member joining, float
  // formatting.  Changing the format is a compatibility break and must be
  // an explicit decision (re-bless with GLOVE_UPDATE_GOLDEN=1).
  test::expect_matches_golden("io_dataset.csv",
                              test::dataset_to_csv(test::grouped_io_dataset()));
}

TEST(StreamingIo, CdrEventReaderMatchesBulkReader) {
  const std::vector<CdrEvent> events{
      {0u, 12.5, geo::LatLon{5.345, -4.024}},
      {3u, 999.0, geo::LatLon{14.69, -17.44}},
      {0u, 1001.0, geo::LatLon{5.350, -4.030}},
  };
  std::ostringstream trace;
  write_cdr_csv(trace, events);

  std::istringstream bulk_in{trace.str()};
  const std::vector<CdrEvent> bulk = read_cdr_csv(bulk_in);

  std::istringstream stream_in{trace.str()};
  CdrEventReader reader{stream_in};
  std::vector<CdrEvent> streamed;
  CdrEvent event;
  while (reader.next(event)) streamed.push_back(event);

  ASSERT_EQ(streamed.size(), bulk.size());
  EXPECT_EQ(reader.rows_read(), bulk.size());
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    EXPECT_EQ(streamed[i].user, bulk[i].user);
    EXPECT_DOUBLE_EQ(streamed[i].time_min, bulk[i].time_min);
  }
}

TEST(StreamingIo, DatasetStreamReaderYieldsOneFingerprintPerRun) {
  // Files written by write_dataset_csv keep group rows contiguous, so the
  // streaming reader reproduces the written dataset exactly — while
  // holding only one fingerprint at a time.
  const FingerprintDataset data = test::small_synth_dataset(10);
  std::ostringstream out;
  write_dataset_csv(out, data);

  std::istringstream stream_in{out.str()};
  DatasetStreamReader reader{stream_in};
  std::vector<Fingerprint> streamed;
  Fingerprint fp;
  while (reader.next(fp)) streamed.push_back(std::move(fp));

  ASSERT_EQ(streamed.size(), data.size());
  EXPECT_EQ(test::dataset_to_csv(
                FingerprintDataset{std::move(streamed), data.name()}),
            out.str());
}

TEST(StreamingIo, InterleavedRunsReadAsOneFingerprintEach) {
  // Interleaved group rows: the one dataset reader yields one fingerprint
  // per contiguous run, in file order, and never coalesces the two runs
  // of user 7 — what the file holds is what a release made from it holds.
  const FingerprintDataset data = test::read_dataset_text(
      "7,0,100,0,100,10,1,1\n"
      "9,500,100,500,100,20,1,1\n"
      "7,0,100,0,100,30,1,1\n");
  ASSERT_EQ(data.size(), 3u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].members()[0], i == 1 ? 9u : 7u) << i;
    EXPECT_EQ(data[i].size(), 1u) << i;
  }
  EXPECT_DOUBLE_EQ(data[2].samples()[0].tau.t, 30.0);
}

TEST(StreamingIo, StreamReaderRejectsMalformedRows) {
  std::istringstream in{"7,0,100,0,100,10,1,0\n"};  // contributors < 1
  DatasetStreamReader reader{in};
  Fingerprint fp;
  EXPECT_THROW((void)reader.next(fp), std::invalid_argument);
}

TEST(StreamingIo, StreamReaderRejectsTruncatedRows) {
  // A row cut mid-write (fewer than 8 fields) is a hard error, not a
  // silently shorter sample — truncation must never pass as data.
  for (const char* text : {"7,0,100,0,100\n",                // truncated row
                           "7,0,100,0,100,10,1,1\n7,0,100\n",  // mid-file
                           "7,0,100,0,100,10,1\n"}) {          // one short
    std::istringstream in{text};
    DatasetStreamReader reader{in};
    Fingerprint fp;
    EXPECT_THROW(
        {
          while (reader.next(fp)) {
          }
        },
        std::invalid_argument)
        << text;
  }
}

TEST(StreamingIo, HandlesCrlfLineEndings) {
  // Windows-edited traces terminate rows with \r\n; the trailing \r must
  // not leak into the last field of either reader.
  std::istringstream dataset_in{
      "# comment\r\n7,0,100,0,100,10,1,1\r\n7,0,100,0,100,20,1,1\r\n"};
  DatasetStreamReader reader{dataset_in};
  Fingerprint fp;
  ASSERT_TRUE(reader.next(fp));
  ASSERT_EQ(fp.size(), 2u);
  EXPECT_EQ(fp.samples()[0].contributors, 1u);
  EXPECT_FALSE(reader.next(fp));

  std::istringstream cdr_in{"3,12.5,5.1,-4.2\r\n"};
  CdrEventReader events{cdr_in};
  CdrEvent event;
  ASSERT_TRUE(events.next(event));
  EXPECT_DOUBLE_EQ(event.antenna.lon_deg, -4.2);
}

TEST(StreamingIo, InterleavedGroupRunsStreamAsSeparateRuns) {
  // Keys that alternate row-by-row (the worst interleaving) yield one
  // fingerprint per run and never mix samples across keys.
  const std::string text =
      "1,0,100,0,100,10,1,1\n"
      "2,900,100,900,100,20,1,1\n"
      "1,0,100,0,100,30,1,1\n"
      "2,900,100,900,100,40,1,1\n";
  std::istringstream in{text};
  DatasetStreamReader reader{in};
  Fingerprint fp;
  std::vector<UserId> run_users;
  while (reader.next(fp)) {
    ASSERT_EQ(fp.size(), 1u);
    run_users.push_back(fp.members()[0]);
  }
  EXPECT_EQ(run_users, (std::vector<UserId>{1u, 2u, 1u, 2u}));
}

TEST(StreamingIo, RewindAfterEofRestartsBothReaders) {
  const FingerprintDataset data = test::small_synth_dataset(6);
  std::stringstream stream;
  write_dataset_csv(stream, data);

  DatasetStreamReader reader{stream};
  Fingerprint fp;
  std::size_t first_pass = 0;
  while (reader.next(fp)) ++first_pass;
  EXPECT_EQ(first_pass, data.size());
  EXPECT_FALSE(reader.next(fp));  // EOF is stable

  reader.rewind();
  std::size_t second_pass = 0;
  while (reader.next(fp)) ++second_pass;
  EXPECT_EQ(second_pass, first_pass);

  // Rewinding mid-run discards the buffered pending run too.
  reader.rewind();
  ASSERT_TRUE(reader.next(fp));
  reader.rewind();
  std::size_t third_pass = 0;
  while (reader.next(fp)) ++third_pass;
  EXPECT_EQ(third_pass, first_pass);
}

TEST(StreamingIo, RewindOnUnseekableStreamThrows) {
  // A reader over a non-seekable stream (pipes, sockets — modelled here
  // by the default streambuf, whose seekoff always fails) must surface
  // the problem instead of silently re-reading nothing.
  struct NoSeekBuf : std::streambuf {};
  NoSeekBuf buffer;
  std::istream in{&buffer};
  DatasetStreamReader reader{in};
  EXPECT_THROW(reader.rewind(), std::runtime_error);
}

TEST(FileIo, ParseFailuresReportPathAndLineNumber) {
  const test::TempDir dir;

  const std::string dataset_path = dir.file("broken_dataset.csv");
  std::ofstream{dataset_path}
      << "1,0,100,0,100,10,1,1\n1,0,100,0,100,oops,1,1\n";
  try {
    (void)test::read_dataset(dataset_path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(dataset_path), std::string::npos) << message;
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }

  const std::string cdr_path = dir.file("broken_trace.csv");
  std::ofstream{cdr_path} << "# header\n1,2,3\n";
  try {
    (void)read_cdr_file(cdr_path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(cdr_path), std::string::npos) << message;
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }
}

/// Expects `read` to throw std::invalid_argument naming `path`, line 2
/// and `what`.
template <typename Read>
void expect_row_rejected(Read&& read, const std::string& path,
                         const std::string& what) {
  try {
    read();
    ADD_FAILURE() << "expected std::invalid_argument (" << what << ")";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

/// A valid two-row dataset CSV whose second row has `field` (1-6: x, dx,
/// y, dy, t, dt) replaced by `value`.
std::string dataset_with_field(std::size_t field, const std::string& value) {
  std::vector<std::string> row{"1", "0", "100", "0", "100", "10", "1", "1"};
  row[field] = value;
  std::string text = "1,0,100,0,100,5,1,1\n";
  for (std::size_t i = 0; i < row.size(); ++i) {
    text += (i == 0 ? "" : ",") + row[i];
  }
  return text + "\n";
}

TEST(DatasetIo, RejectsNonFiniteSampleFields) {
  // NaN would break the candidate heap's strict weak order, and an
  // infinite coordinate the stretch lower bound.
  const test::TempDir dir;
  const std::string path = dir.file("non_finite.csv");
  for (std::size_t field = 1; field <= 6; ++field) {
    for (const char* value : {"nan", "inf", "-inf"}) {
      std::ofstream{path} << dataset_with_field(field, value);
      expect_row_rejected([&] { (void)test::read_dataset(path); }, path,
                          "must be finite");
    }
  }
}

TEST(DatasetIo, RejectsNegativeExtents) {
  const test::TempDir dir;
  const std::string path = dir.file("negative_extent.csv");
  for (const std::size_t field : {2u, 4u, 6u}) {  // dx, dy, dt
    std::ofstream{path} << dataset_with_field(field, "-0.5");
    expect_row_rejected([&] { (void)test::read_dataset(path); }, path,
                        "must be non-negative");
  }
  // Negative coordinates are ordinary positions west/south of the origin.
  for (const std::size_t field : {1u, 3u, 5u}) {
    std::ofstream{path} << dataset_with_field(field, "-0.5");
    EXPECT_NO_THROW((void)test::read_dataset(path));
  }
}

TEST(CdrIo, RejectsNonFiniteTimeOrPosition) {
  for (std::size_t field = 1; field <= 3; ++field) {
    for (const char* value : {"nan", "inf"}) {
      std::vector<std::string> row{"2", "10", "6.8", "-5.3"};
      row[field] = value;
      std::istringstream in{"1,10,6.8,-5.3\n" + row[0] + "," + row[1] + "," +
                            row[2] + "," + row[3] + "\n"};
      CdrEventReader reader{in, "trace.csv"};
      CdrEvent event;
      ASSERT_TRUE(reader.next(event));
      expect_row_rejected([&] { (void)reader.next(event); }, "trace.csv",
                          "must be finite");
    }
  }
}

TEST(CdrIo, RejectsPositionsOffTheGlobe) {
  // A finite position off the globe projects to a meaningless grid cell.
  const test::TempDir dir;
  const std::string path = dir.file("trace.csv");
  for (const char* position : {"1e300,-5.3", "-90.5,-5.3", "6.8,181",
                               "6.8,-1e300"}) {
    std::ofstream{path} << "1,10,6.8,-5.3\n2,10," << position << "\n";
    expect_row_rejected([&] { (void)read_cdr_file(path); }, path,
                        "must be finite and in");
  }
  std::ofstream{path} << "1,10,90,180\n2,10,-90,-180\n";
  EXPECT_EQ(read_cdr_file(path).size(), 2u);
}

TEST(CdrIo, RejectsUserIdTooLargeForItsField) {
  // 4294967296 used to wrap to user 0.
  std::istringstream in{"1,10,6.8,-5.3\n4294967296,10,6.8,-5.3\n"};
  CdrEventReader reader{in, "trace.csv"};
  CdrEvent event;
  ASSERT_TRUE(reader.next(event));
  expect_row_rejected([&] { (void)reader.next(event); }, "trace.csv",
                      "user id '4294967296'");
}

TEST(StreamingIo, EventReaderPrefixesPathOnMalformedRows) {
  std::istringstream in{"1,10,6.8,-5.3\n2,oops,6.8,-5.3\n"};
  CdrEventReader reader{in, "stream.csv"};
  CdrEvent event;
  ASSERT_TRUE(reader.next(event));
  try {
    (void)reader.next(event);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("stream.csv"), std::string::npos) << message;
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }
}

TEST(TailIo, MissingFileRetriesOnNextPoll) {
  const test::TempDir dir;
  const std::string path = dir.file("late.csv");
  CdrEventTailReader reader{path};
  CdrEvent event;
  EXPECT_FALSE(reader.poll(event));  // not an error: the file may appear
  EXPECT_FALSE(reader.opened());
  std::ofstream{path} << "7,12.5,6.8,-5.3\n";
  ASSERT_TRUE(reader.poll(event));
  EXPECT_TRUE(reader.opened());
  EXPECT_EQ(event.user, 7u);
  EXPECT_DOUBLE_EQ(event.time_min, 12.5);
  EXPECT_FALSE(reader.poll(event));  // EOF until more is appended
}

TEST(TailIo, ToleratesPartialTrailingLineUntilCompleted) {
  // A live producer may be mid-append when we poll: the torn last row
  // must not parse (or throw) — it is retried once the newline lands.
  const test::TempDir dir;
  const std::string path = dir.file("tail.csv");
  std::ofstream{path} << "1,10,6.8,-5.3\n2,11,6.";  // torn second row
  CdrEventTailReader reader{path};
  CdrEvent event;
  ASSERT_TRUE(reader.poll(event));
  EXPECT_EQ(event.user, 1u);
  EXPECT_FALSE(reader.poll(event));  // partial row: wait, don't fail
  EXPECT_EQ(reader.rows_read(), 1u);

  std::ofstream{path, std::ios::app} << "8,-5.3\n3,12,6.8,-5.3\n";
  ASSERT_TRUE(reader.poll(event));
  EXPECT_EQ(event.user, 2u);
  EXPECT_DOUBLE_EQ(event.antenna.lat_deg, 6.8);  // "6." + "8" reassembled
  ASSERT_TRUE(reader.poll(event));
  EXPECT_EQ(event.user, 3u);
  EXPECT_FALSE(reader.poll(event));
  EXPECT_EQ(reader.rows_read(), 3u);
}

TEST(TailIo, SkipsCommentsBlanksAndCrlf) {
  const test::TempDir dir;
  const std::string path = dir.file("mixed.csv");
  std::ofstream{path} << "# header\r\n\r\n1,10,6.8,-5.3\r\n\n2,11,6.8,-5.3\n";
  CdrEventTailReader reader{path};
  CdrEvent event;
  ASSERT_TRUE(reader.poll(event));
  EXPECT_EQ(event.user, 1u);
  EXPECT_DOUBLE_EQ(event.antenna.lon_deg, -5.3);  // no trailing \r
  ASSERT_TRUE(reader.poll(event));
  EXPECT_EQ(event.user, 2u);
  EXPECT_FALSE(reader.poll(event));
}

TEST(TailIo, TruncationRestartsFromByteZero) {
  // A producer that restarts its feed rewrites the file smaller than the
  // consumed offset; seeking past the new end would tail nothing forever.
  const test::TempDir dir;
  const std::string path = dir.file("trunc.csv");
  std::ofstream{path} << "1,10,6.8,-5.3\n2,11,6.8,-5.3\n3,12,6.8,-5.3\n";
  CdrEventTailReader reader{path};
  CdrEvent event;
  for (std::uint64_t user = 1; user <= 3; ++user) {
    ASSERT_TRUE(reader.poll(event));
    EXPECT_EQ(event.user, user);
  }
  // Rewrite in place, smaller: same inode, shrunken size.
  std::ofstream{path, std::ios::trunc} << "9,20,6.8,-5.3\n";
  ASSERT_TRUE(reader.poll(event));
  EXPECT_EQ(event.user, 9u);
  EXPECT_EQ(reader.line_number(), 1u);  // restarted with the new file
  EXPECT_EQ(reader.rows_read(), 4u);    // cumulative across the restart
  EXPECT_FALSE(reader.poll(event));
}

TEST(TailIo, RotationReopensTheNewFile) {
  // logrotate-style swap: the consumed file moves aside and a fresh one
  // takes over the path.  The reader must follow the path, not the inode.
  const test::TempDir dir;
  const std::string path = dir.file("rotate.csv");
  std::ofstream{path} << "1,10,6.8,-5.3\n2,11,6.8,-5.3\n";
  CdrEventTailReader reader{path};
  CdrEvent event;
  ASSERT_TRUE(reader.poll(event));
  ASSERT_TRUE(reader.poll(event));
  EXPECT_EQ(event.user, 2u);

  std::filesystem::rename(path, dir.file("rotate.csv.1"));
  EXPECT_FALSE(reader.poll(event));  // gap until the new file appears
  std::ofstream{path} << "5,30,6.8,-5.3\n6,31,6.8,-5.3\n7,32,6.8,-5.3\n";
  for (std::uint64_t user = 5; user <= 7; ++user) {
    ASSERT_TRUE(reader.poll(event));
    EXPECT_EQ(event.user, user);
  }
  EXPECT_EQ(reader.rows_read(), 5u);
  EXPECT_FALSE(reader.poll(event));
}

TEST(TailIo, RotationDrainsTheOldFileFirst) {
  // Rows the moved file still holds come before the new file's: the
  // reader follows the path only once its open file has no complete row.
  const test::TempDir dir;
  const std::string path = dir.file("drain.csv");
  std::ofstream{path} << "1,10,6.8,-5.3\n2,11,6.8,-5.3\n3,12,6.8,-5.3\n";
  CdrEventTailReader reader{path};
  CdrEvent event;
  ASSERT_TRUE(reader.poll(event));
  EXPECT_EQ(event.user, 1u);

  std::filesystem::rename(path, dir.file("drain.csv.1"));
  std::ofstream{path} << "5,30,6.8,-5.3\n";
  for (const std::uint64_t user : {2u, 3u, 5u}) {
    ASSERT_TRUE(reader.poll(event));
    EXPECT_EQ(event.user, user);
  }
  EXPECT_EQ(reader.rows_read(), 4u);
  EXPECT_FALSE(reader.poll(event));
}

TEST(TailIo, MalformedRowThrowsWithPathAndLine) {
  const test::TempDir dir;
  const std::string path = dir.file("bad.csv");
  std::ofstream{path} << "# header\n1,10,6.8,-5.3\n-4,11,6.8,-5.3\n";
  CdrEventTailReader reader{path};
  CdrEvent event;
  ASSERT_TRUE(reader.poll(event));
  try {
    (void)reader.poll(event);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  }
}

TEST(StreamingIo, DatasetStreamWriterMatchesBulkWriter) {
  const FingerprintDataset data = test::small_synth_dataset(8);
  std::ostringstream bulk;
  write_dataset_csv(bulk, data);

  std::ostringstream streamed;
  DatasetStreamWriter writer{streamed};
  writer.begin(data.name());
  for (const Fingerprint& fp : data.fingerprints()) writer.write(fp);
  EXPECT_EQ(streamed.str(), bulk.str());
}

}  // namespace
}  // namespace glove::cdr
