#include "glove/cdr/d4d.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/temp_dir.hpp"

namespace glove::cdr {
namespace {

TEST(D4DTimestamp, ParsesReferenceDates) {
  // 2000-01-01 00:00 is the epoch.
  EXPECT_DOUBLE_EQ(parse_d4d_timestamp_min("2000-01-01 00:00:00"), 0.0);
  // One day later.
  EXPECT_DOUBLE_EQ(parse_d4d_timestamp_min("2000-01-02 00:00:00"), 1'440.0);
  // Minutes and seconds.
  EXPECT_DOUBLE_EQ(parse_d4d_timestamp_min("2000-01-01 01:30:30"),
                   90.0 + 0.5);
  // Seconds optional.
  EXPECT_DOUBLE_EQ(parse_d4d_timestamp_min("2000-01-01 02:15"), 135.0);
}

TEST(D4DTimestamp, HandlesLeapYears) {
  // 2012-02-29 exists; 2012-03-01 is one day later.
  const double feb29 = parse_d4d_timestamp_min("2012-02-29 00:00:00");
  const double mar01 = parse_d4d_timestamp_min("2012-03-01 00:00:00");
  EXPECT_DOUBLE_EQ(mar01 - feb29, 1'440.0);
  // 2011-2012 spans a leap year boundary: 366 days from 2012-01-01 to
  // 2013-01-01.
  const double y2012 = parse_d4d_timestamp_min("2012-01-01 00:00:00");
  const double y2013 = parse_d4d_timestamp_min("2013-01-01 00:00:00");
  EXPECT_DOUBLE_EQ(y2013 - y2012, 366.0 * 1'440.0);
}

TEST(D4DTimestamp, D4DChallengePeriodParses) {
  // The Ivory Coast dataset covers Dec 2011 - Apr 2012.
  const double start = parse_d4d_timestamp_min("2011-12-05 07:32:04");
  const double end = parse_d4d_timestamp_min("2012-04-22 23:59:59");
  EXPECT_GT(end, start);
  EXPECT_NEAR((end - start) / 1'440.0, 139.7, 0.1);  // ~140 days
}

TEST(D4DTimestamp, RoundTripsThroughFormatter) {
  for (const char* text :
       {"2011-12-05 07:32:00", "2012-02-29 23:59:00", "2000-01-01 00:00:00",
        "2024-06-15 12:30:00"}) {
    EXPECT_EQ(format_d4d_timestamp(parse_d4d_timestamp_min(text)), text);
  }
}

TEST(D4DTimestamp, RejectsMalformedInput) {
  for (const char* bad :
       {"2012/01/01 00:00:00", "2012-1-01 00:00", "not a date",
        "2012-13-01 00:00:00", "2012-01-32 00:00:00", "2012-01-01 25:00:00",
        "2012-01-01", ""}) {
    EXPECT_THROW((void)parse_d4d_timestamp_min(bad), std::invalid_argument)
        << "input: " << bad;
  }
}

TEST(D4DAntennas, ParsesTable) {
  std::istringstream in{
      "# antenna_id,lat,lon\n"
      "1,5.3543,-4.0241\n"
      "2,5.3711,-3.9623\n"};
  const AntennaTable table = read_d4d_antennas(in);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_NEAR(table.at(1).lat_deg, 5.3543, 1e-9);
  EXPECT_NEAR(table.at(2).lon_deg, -3.9623, 1e-9);
}

TEST(D4DAntennas, RejectsDuplicatesAndBadRows) {
  std::istringstream dup{"1,5.0,-4.0\n1,5.1,-4.1\n"};
  EXPECT_THROW((void)read_d4d_antennas(dup), std::invalid_argument);
  std::istringstream bad{"1,5.0\n"};
  EXPECT_THROW((void)read_d4d_antennas(bad), std::invalid_argument);
}

TEST(D4DAntennas, RejectsCoordinatesOffTheGlobe) {
  // util::parse_double accepts nan and inf, and a position off the globe
  // projects to a meaningless (for NaN, undefined) grid cell.
  for (const char* row : {"7,nan,-5.2", "7,6.8,nan", "7,inf,-5.2",
                          "7,90.5,-5.2", "7,-91,-5.2", "7,6.8,180.5",
                          "7,6.8,-1e300"}) {
    std::istringstream in{std::string{"1,6.8,-5.3\n"} + row + "\n"};
    try {
      (void)read_d4d_antennas(in);
      ADD_FAILURE() << "accepted " << row;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("line 2"), std::string::npos) << message;
      EXPECT_NE(message.find("must be finite and in"), std::string::npos)
          << message;
    }
  }
  std::istringstream edges{"1,90,180\n2,-90,-180\n"};
  EXPECT_EQ(read_d4d_antennas(edges).size(), 2u);
}

TEST(D4DFiles, NanAntennaLatitudeFailsWithThePathAndLine) {
  const test::TempDir dir;
  const std::string antennas = dir.file("ant.csv");
  std::ofstream{antennas} << "1,nan,-5.2\n2,6.8,-5.3\n";
  try {
    (void)read_d4d_antennas_file(antennas);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(antennas), std::string::npos) << message;
    EXPECT_NE(message.find("line 1"), std::string::npos) << message;
    EXPECT_NE(message.find("lat must be finite"), std::string::npos) << message;
  }
}

AntennaTable two_antennas() {
  AntennaTable table;
  table.emplace(10, geo::LatLon{5.35, -4.02});
  table.emplace(20, geo::LatLon{5.40, -4.10});
  return table;
}

TEST(D4DTrace, LoadsAndRebasesEvents) {
  std::istringstream in{
      "7,2011-12-05 07:30:00,10\n"
      "7,2011-12-05 19:45:00,20\n"
      "9,2011-12-06 00:15:00,10\n"};
  const D4DTrace trace = read_d4d_trace(in, two_antennas());
  ASSERT_EQ(trace.events.size(), 3u);
  // Rebased to the midnight before the earliest event (2011-12-05 00:00).
  EXPECT_DOUBLE_EQ(trace.events[0].time_min, 7 * 60.0 + 30.0);
  EXPECT_DOUBLE_EQ(trace.events[2].time_min, 1'440.0 + 15.0);
  EXPECT_NEAR(trace.events[1].antenna.lat_deg, 5.40, 1e-9);
}

TEST(D4DTrace, RejectsUnknownAntenna) {
  std::istringstream in{"7,2011-12-05 07:30:00,99\n"};
  EXPECT_THROW((void)read_d4d_trace(in, two_antennas()),
               std::invalid_argument);
}

TEST(D4DTrace, RejectsUserIdTooLargeForItsField) {
  // 4294967296 used to wrap to user 0.
  std::istringstream in{"7,2011-12-05 07:30:00,10\n"
                        "4294967296,2011-12-05 08:30:00,10\n"};
  try {
    (void)read_d4d_trace(in, two_antennas());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("user id '4294967296'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }
}

TEST(D4DTrace, EmptyInputYieldsEmptyTrace) {
  std::istringstream in{"# nothing\n"};
  const D4DTrace trace = read_d4d_trace(in, two_antennas());
  EXPECT_TRUE(trace.events.empty());
}

TEST(D4DTrace, ReadsTheLargestUserIds) {
  // A user id near the top of UserId is an id like any other: the reader
  // must neither index nor size anything by it.
  std::istringstream in{"4294967295,2011-12-05 07:30:00,10\n"
                        "4294967294,2011-12-05 07:45:00,20\n"
                        "4294967295,2011-12-05 08:30:00,20\n"};
  const D4DTrace trace = read_d4d_trace(in, two_antennas());
  ASSERT_EQ(trace.events.size(), 3u);
  EXPECT_EQ(trace.events[0].user, 4294967295u);
  EXPECT_EQ(trace.events[1].user, 4294967294u);
  EXPECT_EQ(trace.events[2].user, 4294967295u);
  EXPECT_DOUBLE_EQ(trace.events[2].time_min, 8 * 60.0 + 30.0);
}

TEST(D4DTrace, WriteReadRoundTrip) {
  std::vector<D4DRecord> records{
      {7u, parse_d4d_timestamp_min("2011-12-05 07:30:00"), 10},
      {9u, parse_d4d_timestamp_min("2011-12-06 00:15:00"), 20},
  };
  std::ostringstream out;
  write_d4d_trace(out, records);
  std::istringstream in{out.str()};
  const D4DTrace trace = read_d4d_trace(in, two_antennas());
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].user, 7u);
  EXPECT_EQ(trace.events[1].user, 9u);
  EXPECT_DOUBLE_EQ(trace.events[1].time_min - trace.events[0].time_min,
                   (24.0 - 7.5) * 60.0 + 15.0);
}

TEST(D4DTrace, FeedsTheFingerprintBuilder) {
  // End-to-end: D4D files -> events -> fingerprints at 100 m / 1 min.
  std::istringstream in{
      "7,2011-12-05 07:30:10,10\n"
      "7,2011-12-05 07:30:50,10\n"  // same minute, same antenna -> dedup
      "7,2011-12-05 09:00:00,20\n"};
  const D4DTrace trace = read_d4d_trace(in, two_antennas());
  BuilderConfig config;
  config.projection_origin = geo::LatLon{5.37, -4.06};
  const FingerprintDataset data = build_fingerprints(trace.events, config);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0].size(), 2u);
}

TEST(D4DFiles, MissingFilesThrow) {
  EXPECT_THROW((void)read_d4d_antennas_file("/nonexistent.csv"),
               std::runtime_error);
  EXPECT_THROW((void)read_d4d_trace_file("/nonexistent.csv", {}),
               std::runtime_error);
}

}  // namespace
}  // namespace glove::cdr
