#include <sstream>

#include <gtest/gtest.h>

#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace magic::util {
namespace {

TEST(StringUtil, TrimRemovesBothEnds) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t x\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, SplitWhitespaceSkipsRuns) {
  const auto parts = split_whitespace("  mov   eax,  1 ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "mov");
  EXPECT_EQ(parts[1], "eax,");
  EXPECT_EQ(parts[2], "1");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("loc_401000", "loc_"));
  EXPECT_FALSE(starts_with("lo", "loc_"));
}

TEST(StringUtil, FormatFixed) {
  EXPECT_EQ(format_fixed(0.96237848, 6), "0.962378");
  EXPECT_EQ(format_fixed(1.0, 2), "1.00");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Table, RendersAlignedRows) {
  Table t({"Family", "F1"});
  t.add_row({"Ramnit", "0.976"});
  t.add_row({"Kelihos_ver3", "1.000"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("Family"), std::string::npos);
  EXPECT_NE(out.find("Kelihos_ver3"), std::string::npos);
  EXPECT_NE(out.find("0.976"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter csv({"name", "value"});
  csv.add_row({"with,comma", "with\"quote"});
  const std::string out = csv.to_string();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Csv, PlainFieldsUnquoted) {
  CsvWriter csv({"a"});
  csv.add_row({"plain"});
  EXPECT_EQ(csv.to_string(), "a\nplain\n");
}

TEST(Csv, RejectsArityMismatch) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({"x"}), std::invalid_argument);
}

}  // namespace
}  // namespace magic::util
