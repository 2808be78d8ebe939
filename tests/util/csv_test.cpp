#include "eacs/util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

namespace eacs {
namespace {

TEST(CsvTest, ParseSimple) {
  const auto table = parse_csv("a,b,c\n1,2,3\n4,5,6\n");
  EXPECT_EQ(table.num_rows(), 2U);
  EXPECT_EQ(table.num_cols(), 3U);
  EXPECT_EQ(table.cell(0, "a"), "1");
  EXPECT_EQ(table.cell(1, "c"), "6");
}

TEST(CsvTest, ParseQuotedFields) {
  const auto table = parse_csv("name,note\nx,\"hello, world\"\ny,\"a \"\"quoted\"\" bit\"\n");
  EXPECT_EQ(table.cell(0, "note"), "hello, world");
  EXPECT_EQ(table.cell(1, "note"), "a \"quoted\" bit");
}

TEST(CsvTest, ParseCrlfAndMissingTrailingNewline) {
  const auto table = parse_csv("a,b\r\n1,2\r\n3,4");
  EXPECT_EQ(table.num_rows(), 2U);
  EXPECT_EQ(table.cell(1, "b"), "4");
}

TEST(CsvTest, RaggedRowThrows) {
  EXPECT_THROW(parse_csv("a,b\n1\n"), std::runtime_error);
}

/// Returns the runtime_error message from `fn`, failing if it doesn't throw.
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected std::runtime_error";
  return {};
}

TEST(CsvTest, RaggedRowErrorCitesLine) {
  const auto message =
      error_message([] { parse_csv("a,b\n1,2\n3,4\n5\n6,7\n"); });
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
  EXPECT_NE(message.find("1 cells"), std::string::npos) << message;
}

TEST(CsvTest, RaggedRowLineAccountsForQuotedNewlines) {
  // The quoted cell spans lines 2-3, so the ragged row starts on line 4.
  const auto message =
      error_message([] { parse_csv("a,b\n\"x\ny\",2\nonly_one\n"); });
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
}

TEST(CsvTest, UnterminatedQuoteErrorCitesOpeningLine) {
  const auto message = error_message([] { parse_csv("a\n1\n\"oops\n"); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
}

TEST(CsvTest, NumericErrorsCiteRowAndColumn) {
  const auto table = parse_csv("d,i\n1.5,2\nbad,x\n");
  const auto double_message =
      error_message([&] { table.cell_as_double(1, "d"); });
  EXPECT_NE(double_message.find("row 1"), std::string::npos) << double_message;
  EXPECT_NE(double_message.find("'d'"), std::string::npos) << double_message;
}

TEST(CsvTest, TrailingGarbageAfterNumberThrows) {
  const auto table = parse_csv("d\n1.5abc\n");
  EXPECT_THROW(table.cell_as_double(0, "d"), std::runtime_error);
}

TEST(CsvTest, EmptyCellIsNotADouble) {
  const auto table = parse_csv("a,b\n,2\n");
  EXPECT_THROW(table.cell_as_double(0, "a"), std::runtime_error);
}

TEST(CsvTest, EmptyInputThrows) {
  EXPECT_THROW(parse_csv(""), std::runtime_error);
}

TEST(CsvTest, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv("a\n\"oops\n"), std::runtime_error);
}

TEST(CsvTest, MissingColumnThrows) {
  const auto table = parse_csv("a\n1\n");
  EXPECT_THROW(table.column_index("nope"), std::out_of_range);
  EXPECT_FALSE(table.has_column("nope"));
  EXPECT_TRUE(table.has_column("a"));
}

TEST(CsvTest, NumericConversions) {
  const auto table = parse_csv("d,i\n3.25,42\n");
  EXPECT_DOUBLE_EQ(table.cell_as_double(0, "d"), 3.25);
  EXPECT_DOUBLE_EQ(table.cell_as_double(0, "i"), 42.0);
}

TEST(CsvTest, BadNumericCellThrows) {
  const auto table = parse_csv("d\nnot_a_number\n");
  EXPECT_THROW(table.cell_as_double(0, "d"), std::runtime_error);
}

TEST(CsvTest, RoundTripWithQuoting) {
  CsvTable table({"k", "v"});
  table.add_row({"plain", "with,comma"});
  table.add_row({"quote", "has \"q\""});
  table.add_row({"newline", "two\nlines"});
  const auto reparsed = parse_csv(to_csv(table));
  EXPECT_EQ(reparsed.cell(0, "v"), "with,comma");
  EXPECT_EQ(reparsed.cell(1, "v"), "has \"q\"");
  EXPECT_EQ(reparsed.cell(2, "v"), "two\nlines");
}

TEST(CsvTest, AddRowWidthMismatchThrows) {
  CsvTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only_one"}), std::runtime_error);
}

TEST(CsvTest, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "eacs_csv_test.csv";
  CsvTable table({"t", "v"});
  table.add_row({"0.5", "12.25"});
  write_csv_file(path, table);
  const auto loaded = read_csv_file(path);
  EXPECT_EQ(loaded.num_rows(), 1U);
  EXPECT_DOUBLE_EQ(loaded.cell_as_double(0, "v"), 12.25);
  std::filesystem::remove(path);
}

TEST(CsvTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/dir/file.csv"), std::runtime_error);
}

TEST(CsvTest, FormatDoubleRoundTrips) {
  const double value = 0.1 + 0.2;
  const auto text = format_double(value);
  EXPECT_DOUBLE_EQ(std::stod(text), value);
}

}  // namespace
}  // namespace eacs
