// The reading layer every line format shares (common/record_reader.hpp):
// the streaming line source's lines, offsets and torn tails across window
// refills and window growth; the field cursor's counts and refusals; the
// header reader's magic/version gate and key handling; and the RFC-4180
// field decoder (common/csv.hpp) that the merge and csv_split_row share.
#include "common/record_reader.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.hpp"

namespace tscclock {
namespace {

/// Reads `text` line by line; checks every line and the offset after it.
void expect_lines(const std::string& text,
                  const std::vector<std::string>& lines, bool torn) {
  std::istringstream in(text);
  LineReader reader(in);
  std::string_view line;
  std::size_t offset = 0;
  for (const std::string& want : lines) {
    ASSERT_TRUE(reader.next_line(line));
    ASSERT_EQ(line, want);
    offset += want.size() + 1;
    ASSERT_EQ(reader.offset(), offset);
  }
  EXPECT_FALSE(reader.next_line(line));
  EXPECT_EQ(reader.torn(), torn);
  EXPECT_EQ(reader.offset(), offset);
  // The end stays the end.
  EXPECT_FALSE(reader.next_line(line));
  EXPECT_EQ(reader.torn(), torn);
}

TEST(LineReader, LinesAndOffsetsAcrossRefillsAndAGrownWindow) {
  std::vector<std::string> lines;
  std::string text;
  for (std::size_t i = 0; text.size() < 3 * kLineReadWindow; ++i) {
    // Lengths 0..96 put newlines at every alignment against the window;
    // line 2000 is longer than two windows.
    lines.push_back(i == 2000 ? std::string(2 * kLineReadWindow + 5, 'L')
                              : std::string(i % 97, static_cast<char>(
                                                        'a' + i % 26)));
    text += lines.back() + '\n';
  }
  expect_lines(text, lines, false);
  expect_lines(text + "torn", lines, true);
  expect_lines("", {}, false);
  expect_lines("no newline", {}, true);
}

TEST(LineReader, NextLinesHandsOutWholeLinesOnly) {
  std::string text;
  for (int i = 0; i < 50000; ++i) text += "line " + std::to_string(i) + "\n";
  std::istringstream in(text + "torn");
  LineReader reader(in);
  std::string joined;
  std::string_view block;
  while (reader.next_lines(block)) {
    ASSERT_EQ(block.back(), '\n');
    joined += block;
    EXPECT_EQ(reader.offset(), joined.size());
  }
  EXPECT_EQ(joined, text);
  EXPECT_TRUE(reader.torn());
}

TEST(FieldCursor, WalksFieldsAndRefusesWhatIsNotThere) {
  FieldCursor fields("7\t0x1.8p+0\t1\tx\\ty\t");
  EXPECT_EQ(fields.count(), 5u);
  EXPECT_EQ(fields.u64(), 7u);
  EXPECT_EQ(fields.f64(), 1.5);
  EXPECT_TRUE(fields.flag());
  EXPECT_EQ(fields.text(), "x\ty");
  EXPECT_FALSE(fields.exhausted());
  EXPECT_EQ(fields.next(), "");
  EXPECT_TRUE(fields.exhausted());
  EXPECT_EQ(fields.count(), 5u);
  try {
    fields.next();
    ADD_FAILURE() << "read past the last field";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "record truncated: expected more fields");
  }

  FieldCursor bad("2 nan", ' ');
  EXPECT_EQ(bad.count(), 2u);
  try {
    bad.flag();
    ADD_FAILURE() << "accepted a flag of 2";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "malformed bool field '2'");
  }
  try {
    bad.finite("tb");
    ADD_FAILURE() << "accepted a NaN";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "non-finite tb 'nan'");
  }
  EXPECT_EQ(FieldCursor("").count(), 1u);
  EXPECT_THROW(FieldCursor("-1").u64(), std::runtime_error);
  EXPECT_THROW(FieldCursor("1.5x").f64(), std::runtime_error);
  EXPECT_THROW(FieldCursor("dangling\\").text(), std::runtime_error);
}

class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

std::string error_of(const auto& read) {
  try {
    read();
  } catch (const FormatError& e) {
    return e.what();
  }
  return {};
}

TEST(HeaderReader, MagicAndVersionGate) {
  HeaderReader<FormatError> header("fmt f");
  EXPECT_EQ(error_of([&] { header.check_magic("magic 3", "magic", 3); }), "");
  EXPECT_EQ(error_of([&] { header.check_magic("magic3", "magic", 3); }),
            "fmt f: not a magic file (first line 'magic3')");
  EXPECT_EQ(error_of([&] { header.check_magic("other 3", "magic", 3); }),
            "fmt f: not a magic file (first line 'other 3')");
  EXPECT_EQ(error_of([&] { header.check_magic("magic 4", "magic", 3); }),
            "fmt f: format version 4 is not supported by this build "
            "(expected version 3)");
}

TEST(HeaderReader, FixedOrderValuesAndAnyOrderKeys) {
  HeaderReader<FormatError> header("fmt f");
  EXPECT_EQ(header.value("hash 0x12", "hash"), "0x12");
  EXPECT_EQ(header.value("hash ", "hash"), "");
  for (const char* line : {"hash", "hashx 1", " hash 1", "shard 1/2"}) {
    EXPECT_EQ(error_of([&] { header.value(line, "hash"); }),
              std::string("fmt f: expected 'hash ...', got '") + line + "'");
  }

  const auto [key, value] = header.entry("label two words");
  EXPECT_EQ(key, "label");
  EXPECT_EQ(value, "two words");
  EXPECT_EQ(error_of([&] { header.entry("label "); }),
            "fmt f: duplicate header key 'label'");
  EXPECT_EQ(error_of([&] { header.entry("client"); }),
            "fmt f: malformed header line 'client'");
  EXPECT_EQ(error_of([&] { header.entry(" client 1"); }),
            "fmt f: malformed header line ' client 1'");
  EXPECT_EQ(error_of([&] { header.require("label"); }), "");
  EXPECT_EQ(error_of([&] { header.require("client"); }),
            "fmt f: missing client");
}

TEST(CsvDecodeField, DecodesOneFieldAndFindsItsEnd) {
  const std::string line = csv_escape("a,\"b\"") + ",plain,," + "\"open";
  std::string field;
  std::size_t pos = csv_decode_field(line, 0, field);
  EXPECT_EQ(field, "a,\"b\"");
  EXPECT_EQ(line[pos], ',');
  pos = csv_decode_field(line, pos + 1, field);
  EXPECT_EQ(field, "plain");
  pos = csv_decode_field(line, pos + 1, field);
  EXPECT_EQ(field, "");
  EXPECT_EQ(csv_decode_field(line, pos + 1, field), std::string_view::npos);
  EXPECT_EQ(csv_decode_field("last", 0, field), 4u);
  EXPECT_EQ(field, "last");
  EXPECT_EQ(csv_decode_field("", 0, field), 0u);
  EXPECT_EQ(field, "");
}

}  // namespace
}  // namespace tscclock
