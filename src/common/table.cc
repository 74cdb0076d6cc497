#include "common/table.hh"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/logging.hh"

namespace pact
{

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    panic_if(headers_.empty(), "Table: need at least one column");
}

Table &
Table::row()
{
    rows_.emplace_back();
    return *this;
}

Table &
Table::cell(const std::string &value)
{
    panic_if(rows_.empty(), "Table::cell before Table::row");
    rows_.back().push_back(value);
    return *this;
}

Table &
Table::cell(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return cell(std::string(buf));
}

Table &
Table::cell(std::uint64_t value)
{
    return cell(std::to_string(value));
}

Table &
Table::cell(int value)
{
    return cell(std::to_string(value));
}

Table &
Table::cellCount(std::uint64_t value)
{
    return cell(humanCount(value));
}

std::string
Table::humanCount(std::uint64_t value)
{
    char buf[64];
    if (value >= 1000000000ull) {
        std::snprintf(buf, sizeof(buf), "%.1fB",
                      static_cast<double>(value) / 1e9);
    } else if (value >= 1000000ull) {
        std::snprintf(buf, sizeof(buf), "%.1fM",
                      static_cast<double>(value) / 1e6);
    } else if (value >= 1000ull) {
        std::snprintf(buf, sizeof(buf), "%.0fK",
                      static_cast<double>(value) / 1e3);
    } else {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
    }
    return std::string(buf);
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); c++)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size() && c < widths.size(); c++)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        os << "|";
        for (std::size_t c = 0; c < widths.size(); c++) {
            const std::string &v = c < cells.size() ? cells[c] : "";
            os << " " << v;
            for (std::size_t i = v.size(); i < widths[c]; i++)
                os << ' ';
            os << " |";
        }
        os << "\n";
    };

    auto print_rule = [&]() {
        os << "|";
        for (std::size_t c = 0; c < widths.size(); c++) {
            for (std::size_t i = 0; i < widths[c] + 2; i++)
                os << '-';
            os << "|";
        }
        os << "\n";
    };

    print_row(headers_);
    print_rule();
    for (const auto &row : rows_)
        print_row(row);
}

void
Table::print() const
{
    print(std::cout);
}

void
printHeading(std::ostream &os, const std::string &title)
{
    os << "\n== " << title << " ==\n";
}

} // namespace pact
