// Plain-text table writer used by the benchmark harness to print the
// same rows and series the paper's tables and figures report.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fare {

/// Accumulates rows of string cells and renders them as an aligned ASCII
/// table (for terminals / bench_output.txt).
class Table {
public:
    explicit Table(std::vector<std::string> header);

    /// Append one row; must have the same arity as the header.
    void add_row(std::vector<std::string> row);

    std::size_t num_rows() const { return rows_.size(); }

    /// Render with column alignment and a header separator.
    std::string to_ascii() const;

    void print(std::ostream& os) const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (default 3 decimal places).
std::string fmt(double v, int precision = 3);

/// Shortest round-trip representation of a double (%.17g), locale-free —
/// used for canonical cell keys and JSON serialization.
std::string fmt_exact(double v);

/// Format a fraction as a percentage string, e.g. 0.05 -> "5.0%".
std::string fmt_pct(double fraction, int precision = 1);

}  // namespace fare
