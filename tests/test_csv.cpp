#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.h"

namespace psnt::util {
namespace {

TEST(Csv, BuildsRowsAndCounts) {
  CsvTable t({"code", "delay_ps"});
  t.new_row().add("011").add(65.0);
  t.new_row().add("100").add(77.0);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column_count(), 2u);
  EXPECT_EQ(t.rows()[0][0], "011");
}

TEST(Csv, WritesHeaderAndRows) {
  CsvTable t({"a", "b"});
  t.new_row().add("x").add(1LL);
  EXPECT_EQ(t.to_csv_string(), "a,b\nx,1\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvTable t({"name"});
  t.new_row().add("volts, measured");
  t.new_row().add("say \"hi\"");
  const std::string out = t.to_csv_string();
  EXPECT_NE(out.find("\"volts, measured\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Csv, DoublePrecisionControl) {
  CsvTable t({"v"});
  t.new_row().add(0.93604567, 4);
  EXPECT_EQ(t.to_csv_string(), "v\n0.936\n");
}

TEST(Csv, RejectsTooManyCells) {
  CsvTable t({"only"});
  t.new_row().add("one");
  EXPECT_THROW(t.add("two"), std::logic_error);
}

TEST(Csv, RejectsAddBeforeRow) {
  CsvTable t({"c"});
  EXPECT_THROW(t.add("x"), std::logic_error);
}

TEST(Csv, PrettyAlignsColumns) {
  CsvTable t({"id", "value"});
  t.new_row().add("a").add("1");
  std::ostringstream os;
  t.write_pretty(os);
  EXPECT_NE(os.str().find("id"), std::string::npos);
  EXPECT_NE(os.str().find("value"), std::string::npos);
}

}  // namespace
}  // namespace psnt::util
