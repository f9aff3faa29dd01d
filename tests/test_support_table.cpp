// Tests for the ASCII table / CSV emission used by the benches.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <locale>
#include <stdexcept>
#include <string>

#include "src/support/report.hpp"
#include "src/support/table.hpp"

namespace leak {
namespace {

TEST(TableTest, AlignsColumns) {
  Table t({"a", "long header"});
  t.add_row({"1", "2"});
  t.add_row({"333333", "4"});
  const std::string s = t.to_string();
  // Every line has the same width.
  std::size_t width = 0;
  std::size_t start = 0;
  while (start < s.size()) {
    const auto end = s.find('\n', start);
    const auto len = end - start;
    if (width == 0) width = len;
    EXPECT_EQ(len, width);
    start = end + 1;
  }
  EXPECT_NE(s.find("333333"), std::string::npos);
}

TEST(TableTest, CsvFormat) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(TableTest, RowSizeMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
  EXPECT_EQ(Table::fmt(-1.5, 1), "-1.5");
}

TEST(TableTest, CsvWriteGatedOnEnv) {
  Table t({"v"});
  t.add_row({"9"});
  unsetenv("LEAK_BENCH_CSV");
  EXPECT_FALSE(t.maybe_write_csv("/tmp/leak_table_test.csv"));
  setenv("LEAK_BENCH_CSV", "1", 1);
  EXPECT_TRUE(t.maybe_write_csv("/tmp/leak_table_test.csv"));
  std::ifstream f("/tmp/leak_table_test.csv");
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "v");
  unsetenv("LEAK_BENCH_CSV");
  std::remove("/tmp/leak_table_test.csv");
}

TEST(TableTest, WriteToFullDeviceFails) {
  // /dev/full accepts the open and fails the write: every writer must
  // report that, not the open's success.
  std::ifstream probe("/dev/full");
  if (!probe) GTEST_SKIP() << "no /dev/full on this system";
  EXPECT_FALSE(reporting::write_text("text\n", "/dev/full"));
  EXPECT_FALSE(reporting::write_json(json::Value(1), "/dev/full"));
  Table t({"v"});
  t.add_row({"9"});
  setenv("LEAK_BENCH_CSV", "1", 1);
  EXPECT_FALSE(t.maybe_write_csv("/dev/full"));
  unsetenv("LEAK_BENCH_CSV");
}

TEST(TableTest, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvQuotesSpecialCells) {
  Table t({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  t.add_row({"line\nbreak", ""});
  EXPECT_EQ(t.to_csv(),
            "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n\"line\nbreak\",\n");
}

TEST(TableTest, FmtIsLocaleIndependent) {
  // A global locale with a ',' decimal point must not leak into
  // formatted numbers (CSV artifacts would silently corrupt).
  std::locale saved;
  try {
    std::locale::global(std::locale("de_DE.UTF-8"));
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
  }
  const std::string fixed = Table::fmt(3.14159, 2);
  const std::string exact = Table::fmt_exact(0.33);
  std::locale::global(saved);
  EXPECT_EQ(fixed, "3.14");
  EXPECT_EQ(exact, "0.33");
}

TEST(TableTest, FmtExactRoundTrips) {
  for (const double v : {1.0 / 3.0, 0.1, 26.699, -0.0, 1e-17}) {
    const std::string s = Table::fmt_exact(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
  EXPECT_EQ(Table::fmt_exact(4024.0), "4024");
}

}  // namespace
}  // namespace leak
