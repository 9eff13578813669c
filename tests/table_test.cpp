#include "common/table.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace fare {
namespace {

TEST(TableTest, AsciiRendersHeaderAndRows) {
    Table t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"beta", "2"});
    const std::string out = t.to_ascii();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("beta"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, RowArityValidated) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(TableTest, EmptyHeaderRejected) {
    EXPECT_THROW(Table({}), InvalidArgument);
}

TEST(FmtTest, FixedPrecision) {
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(1.0, 3), "1.000");
}

TEST(FmtTest, Percentage) {
    EXPECT_EQ(fmt_pct(0.05), "5.0%");
    EXPECT_EQ(fmt_pct(0.333, 0), "33%");
}

}  // namespace
}  // namespace fare
