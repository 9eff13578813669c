// Order statistics and metric naming shared by the harness and its tests.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile `q` in (0, 1]: the value at 1-based rank
/// ceil(q * n) of the sorted samples. Reported only when at least
/// `min_beyond` samples lie beyond that rank, so a tail percentile always
/// rests on enough samples to mean something; nullopt otherwise.
std::optional<double> tail_percentile(std::vector<double> values, double q,
                                      std::size_t min_beyond = 10);

/// Harrell-Davis estimate of quantile `q` in (0, 1): a Beta-weighted mean
/// of all order statistics, centred on rank q * (n + 1). Far steadier than a
/// single order statistic when neighbouring samples differ by several
/// percent, as the slowest cells of a plan do. Same tail rule as
/// tail_percentile: nullopt unless at least `min_beyond` of the n samples
/// lie beyond rank ceil(q * n).
std::optional<double> harrell_davis(std::vector<double> values, double q,
                                    std::size_t min_beyond = 10);

/// Metric names the benchmark contract accepts: 1-64 characters of letters,
/// digits, '_', '.' and '-', starting with a letter or digit.
bool valid_metric_name(const std::string& name);

/// Units the contract accepts: 1-16 characters of letters, digits, '_', '/',
/// '%', '.' and '-'.
bool valid_metric_unit(const std::string& unit);

}  // namespace perfbench
