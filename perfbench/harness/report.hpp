// The benchmark's metric catalogue and result line. BENCHMARK.json lists the
// same names and units (tests/perfbench_test.cpp keeps the two in step).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
    const char* name;
    const char* unit;
};

/// Host-time metrics of the untraced run (--trace 0).
const std::vector<MetricDef>& end_to_end_metrics();
/// Layer metrics of the traced run (--trace 1).
const std::vector<MetricDef>& per_layer_metrics();

using MetricValues = std::map<std::string, double>;

/// The contract's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} over exactly `defs`, numbers with
/// all 17 significant digits. Throws std::logic_error when `values` lacks a
/// metric or holds a non-finite one.
std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<MetricDef>& defs, const MetricValues& values);

}  // namespace perfbench
