#include "glove/util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace glove::util {
namespace {

TEST(SplitCsvLine, SplitsSimpleFields) {
  const auto fields = split_csv_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitCsvLine, TrimsWhitespace) {
  const auto fields = split_csv_line(" 1 ,\t2 , 3\t");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "1");
  EXPECT_EQ(fields[1], "2");
  EXPECT_EQ(fields[2], "3");
}

TEST(SplitCsvLine, KeepsEmptyFields) {
  const auto fields = split_csv_line("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitCsvLine, EmptyInputYieldsNoFields) {
  EXPECT_TRUE(split_csv_line("").empty());
}

TEST(CsvReader, SkipsCommentsAndBlankLines) {
  std::istringstream in{"# header\n\n1,2\n  # another\n3,4\n"};
  CsvReader reader{in};
  std::vector<std::string_view> fields;
  ASSERT_TRUE(reader.next(fields));
  EXPECT_EQ(fields[0], "1");
  ASSERT_TRUE(reader.next(fields));
  EXPECT_EQ(fields[0], "3");
  EXPECT_FALSE(reader.next(fields));
  EXPECT_EQ(reader.rows_read(), 2u);
}

TEST(CsvReader, TracksLineNumbers) {
  std::istringstream in{"# c\n10,20\n30,40\n"};
  CsvReader reader{in};
  std::vector<std::string_view> fields;
  ASSERT_TRUE(reader.next(fields));
  EXPECT_EQ(reader.line_number(), 2u);
  ASSERT_TRUE(reader.next(fields));
  EXPECT_EQ(reader.line_number(), 3u);
}

TEST(CsvWriter, RoundTripsWithReader) {
  std::ostringstream out;
  CsvWriter writer{out};
  writer.comment("test");
  writer.row({"1", "2.5", "x"});
  writer.row({"4", "5", "y"});

  std::istringstream in{out.str()};
  CsvReader reader{in};
  std::vector<std::string_view> fields;
  ASSERT_TRUE(reader.next(fields));
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "2.5");
  ASSERT_TRUE(reader.next(fields));
  EXPECT_EQ(fields[2], "y");
  EXPECT_FALSE(reader.next(fields));
}

TEST(ParseDouble, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.25", "test"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e3", "test"), -1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_THROW((void)parse_double("abc", "ctx"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("1.5x", "ctx"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("", "ctx"), std::invalid_argument);
}

TEST(ParseInteger, ParsesValidIntegers) {
  EXPECT_EQ(parse_integer<long long>("42", "n", "test"), 42);
  EXPECT_EQ(parse_integer<long long>("-7", "n", "test"), -7);
  EXPECT_EQ(parse_integer<std::uint32_t>("4294967295", "n", "test"),
            4'294'967'295u);
}

TEST(ParseInteger, RejectsGarbage) {
  EXPECT_THROW((void)parse_integer<long long>("4.2", "n", "ctx"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_integer<long long>("x", "n", "ctx"),
               std::invalid_argument);
}

TEST(ParseInteger, RejectsValuesOutsideTheFieldNamingIt) {
  // Out of range is an error, never a truncation to the field's type.
  for (const char* field : {"4294967296", "-1", "0"}) {
    try {
      (void)parse_integer<std::uint32_t>(field, "contributors",
                                         "row at line 3", 1);
      ADD_FAILURE() << field << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string{e.what()},
                "bad contributors '" + std::string{field} +
                    "' in row at line 3: expected an integer in [1, "
                    "4294967295]");
    }
  }
}

}  // namespace
}  // namespace glove::util
