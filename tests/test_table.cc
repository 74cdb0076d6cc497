/**
 * @file
 * Table formatting tests.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <sstream>

#include "common/table.hh"

using namespace pact;

TEST(Table, HumanCount)
{
    EXPECT_EQ(Table::humanCount(0), "0");
    EXPECT_EQ(Table::humanCount(999), "999");
    EXPECT_EQ(Table::humanCount(1500), "2K");
    EXPECT_EQ(Table::humanCount(743000), "743K");
    EXPECT_EQ(Table::humanCount(4500000), "4.5M");
    EXPECT_EQ(Table::humanCount(2100000000ull), "2.1B");
}

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.row().cell("a").cell(std::uint64_t(1));
    t.row().cell("long-name").cell(123.456, 1);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    // Header, rule, two rows.
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("123.5"), std::string::npos);
    int lines = 0;
    for (char c : out)
        lines += c == '\n';
    EXPECT_EQ(lines, 4);
}

TEST(Table, RowCount)
{
    Table t({"x"});
    EXPECT_EQ(t.rows(), 0u);
    t.row().cell("1");
    t.row().cell("2");
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, MissingCellsRenderEmpty)
{
    Table t({"a", "b", "c"});
    t.row().cell("only");
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(Table, CellCountUsesSuffix)
{
    Table t({"n"});
    t.row().cellCount(1200000);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("1.2M"), std::string::npos);
}

TEST(TableDeath, NoColumnsIsAWiringBug)
{
    // A column-less table is a caller bug, not a user error: panic.
    EXPECT_EXIT({ Table t({}); }, ::testing::KilledBySignal(SIGABRT),
                "need at least one column");
}
