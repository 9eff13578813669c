#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) throw std::invalid_argument("median of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> values, double q,
                                      std::size_t min_beyond) {
    if (values.empty() || !(q > 0.0 && q <= 1.0)) return std::nullopt;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (rank < 1 || n - rank < min_beyond) return std::nullopt;
    return values[rank - 1];
}

std::optional<double> harrell_davis(std::vector<double> values, double q,
                                    std::size_t min_beyond) {
    if (!(q > 0.0 && q < 1.0) || !tail_percentile(values, q, min_beyond)) return std::nullopt;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
    const double log_norm = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
    const auto pdf = [&](double x) {
        if (x <= 0.0 || x >= 1.0) return 0.0;
        return std::exp(log_norm + (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x));
    };
    // Weight of order statistic i: the Beta(a, b) mass on [(i-1)/n, i/n],
    // by Simpson's rule on each interval (the density is smooth there).
    constexpr int kSteps = 16;
    double estimate = 0.0, total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double lo = static_cast<double>(i) / n, h = 1.0 / (n * kSteps);
        double mass = pdf(lo) + pdf(lo + kSteps * h);
        for (int k = 1; k < kSteps; ++k) mass += (k % 2 ? 4.0 : 2.0) * pdf(lo + k * h);
        mass *= h / 3.0;
        estimate += mass * values[i];
        total += mass;
    }
    return estimate / total;
}

namespace {

bool all_of_charset(const std::string& s, const std::string& extra) {
    return std::all_of(s.begin(), s.end(), [&](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
               extra.find(c) != std::string::npos;
    });
}

}  // namespace

bool valid_metric_name(const std::string& name) {
    return !name.empty() && name.size() <= 64 &&
           std::isalnum(static_cast<unsigned char>(name[0])) != 0 &&
           all_of_charset(name, "_.-");
}

bool valid_metric_unit(const std::string& unit) {
    return !unit.empty() && unit.size() <= 16 && all_of_charset(unit, "_/%.-");
}

}  // namespace perfbench
