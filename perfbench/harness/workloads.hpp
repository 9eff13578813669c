// The benchmark's three workloads. Each is a plan generated from the
// benchmark seed S; the program under test receives only the CellSpecs,
// with epochs pinned per cell (FARE_EPOCHS never applies). README.md
// records why each one was chosen and which layer it stresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/plan.hpp"

namespace perfbench {

struct Workload {
    std::string name;
    /// Cells executing at once: 2 runs cells on the pool, 1 runs them one at
    /// a time on the calling thread (kernels inside a cell may then use the
    /// pool's second worker).
    std::size_t cell_width = 1;
    fare::ExperimentPlan (*build)(std::uint64_t seed) = nullptr;
};

/// Worker cap every workload runs under (FARE_THREADS): half of the 4-core
/// hosts the benchmark was sized on, leaving the host headroom.
inline constexpr std::size_t kThreadCap = 2;

const std::vector<Workload>& workloads();

/// nullptr when no workload has that name.
const Workload* find_workload(const std::string& name);

/// `count` well-mixed seeds derived from `seed` (splitmix64 of seed + k·γ).
std::vector<std::uint64_t> derived_seeds(std::uint64_t seed, std::size_t count);

/// 64-bit FNV-1a: the stable hash behind derived seeds and output digests.
std::uint64_t fnv1a(const std::string& s);

}  // namespace perfbench
