#include "report/table.hpp"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(Table, RequiresHeaders) {
  EXPECT_THROW(Table{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), std::logic_error);
}

TEST(Table, ValidateCatchesArityMismatch) {
  Table t({"a", "b"});
  t.row().cell("only-one");
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.row().cell("x").cell(1.5, 1);
  EXPECT_EQ(t.to_csv(), "a,b\nx,1.5\n");
}

TEST(Table, CsvEscapesSpecialCells) {
  Table t({"a"});
  t.row().cell("has,comma");
  t.row().cell("has\"quote");
  const std::string s = t.to_csv();
  EXPECT_NE(s.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, NumericFormatting) {
  Table t({"v"});
  t.row().cell(3.14159, 2);
  EXPECT_EQ(t.to_csv(), "v\n3.14\n");
}

}  // namespace
}  // namespace uvmsim
