#include "common/table.hpp"

#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace fare {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
    FARE_CHECK(!header_.empty(), "table header must be non-empty");
}

void Table::add_row(std::vector<std::string> row) {
    FARE_CHECK(row.size() == header_.size(), "row arity must match header");
    rows_.push_back(std::move(row));
}

std::string Table::to_ascii() const {
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "| " : " | ") << std::left << std::setw(static_cast<int>(width[c]))
               << row[c];
        }
        os << " |\n";
    };
    emit(header_);
    os << '|';
    for (std::size_t c = 0; c < header_.size(); ++c)
        os << std::string(width[c] + 2, '-') << '|';
    os << '\n';
    for (const auto& row : rows_) emit(row);
    return os.str();
}

void Table::print(std::ostream& os) const {
    os << to_ascii();
}

std::string fmt(double v, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string fmt_exact(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string fmt_pct(double fraction, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << fraction * 100.0 << '%';
    return os.str();
}

}  // namespace fare
