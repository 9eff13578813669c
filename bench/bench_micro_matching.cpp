// Micro-benchmarks for the matching algorithms at the core of FARe's
// mapper: b-Suitor (half-approximation), exact Hungarian assignment, the
// full row-permutation search and one whole batch mapping — the quantities
// behind the paper's claim that the mapping is cheap enough for a ~1%
// preprocessing overhead.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "common/rng.hpp"
#include "fare/bsuitor.hpp"
#include "fare/hungarian.hpp"
#include "fare/mapper.hpp"
#include "fare/row_matcher.hpp"
#include "oracle/row_matcher_reference.hpp"
#include "oracle/suitor_match.hpp"

namespace {

using namespace fare;

std::vector<WeightedEdge> random_bipartite(std::uint32_t half, int degree, Rng& rng) {
    std::vector<WeightedEdge> edges;
    edges.reserve(static_cast<std::size_t>(half) * static_cast<std::size_t>(degree));
    for (std::uint32_t u = 0; u < half; ++u)
        for (int k = 0; k < degree; ++k)
            edges.push_back({u,
                             static_cast<std::uint32_t>(half + rng.next_below(half)),
                             rng.uniform(0.1f, 10.0f)});
    return edges;
}

void BM_BSuitorBipartite(benchmark::State& state) {
    const auto half = static_cast<std::uint32_t>(state.range(0));
    Rng rng(1);
    const auto edges = random_bipartite(half, 16, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(suitor_match(2 * half, edges));
    }
    state.SetComplexityN(half);
}
BENCHMARK(BM_BSuitorBipartite)->Range(32, 1024)->Complexity();

void BM_HungarianSquare(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    std::vector<double> cost(n * n);
    for (auto& c : cost) c = rng.uniform(0.0f, 100.0f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hungarian_min_cost(n, n, cost));
    }
    state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HungarianSquare)->Range(16, 256)->Complexity();

BinaryBlock random_block(std::uint16_t n, double density, Rng& rng) {
    BinaryBlock b;
    b.size = n;
    b.bits.assign(static_cast<std::size_t>(n) * n, 0);
    for (auto& bit : b.bits) bit = rng.next_bool(density) ? 1 : 0;
    return b;
}

/// One (block, crossbar) instance at crossbar scale (n = 128): a block at
/// `block_density` and one crossbar with `fault_pct`% faults, half SA1,
/// placed without clustering so the argument is the instance's density.
struct RowInstance {
    BinaryBlock block;
    FaultMap map;
};

RowInstance row_instance(std::uint64_t block_seed, double block_density, double fault_pct) {
    Rng rng(block_seed);
    FaultInjectionConfig cfg;
    cfg.density = fault_pct / 100.0;
    cfg.sa1_fraction = 0.5;
    cfg.cluster_shape = 0.0;
    cfg.seed = 7;
    return {random_block(128, block_density, rng), inject_faults(1, 128, 128, cfg).front()};
}

using RowSolver = RowMatchResult (*)(const BinaryBlock&, const FaultMap&,
                                     const RowMatchWeights&);

/// cost(i,j) inner solve, the paper's b-Suitor use case, swept over fault
/// density (the argument, in %).
void row_permutation(benchmark::State& state, RowSolver solve, double block_density) {
    const RowInstance inst =
        row_instance(3, block_density, static_cast<double>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(solve(inst.block, inst.map, {}));
    }
}

// BM_RowPermutationBSuitor runs the implicit-graph path, ...Reference the
// materialised-graph oracle on the same instances: /1, /3, /5 at block
// density 5%; fig5_shape/1 at block density 1% — Fig. 5's tie-heavy
// shape, where nearly every block row takes a faulty row's default benefit;
// and worn_shape/25, a worn chip: 25% faults under a 1%-dense block, where
// 23% of (block row, faulty row) pairs touch and get priced, listed edges.
const bool kRowPermutationBenches = [] {
    const std::pair<const char*, RowSolver> solvers[] = {
        {"BM_RowPermutationBSuitor", &best_row_permutation},
        {"BM_RowPermutationBSuitorReference", &best_row_permutation_reference}};
    for (const auto& [name, solve] : solvers)
        benchmark::RegisterBenchmark(name, row_permutation, solve, 0.05)
            ->Arg(1)->Arg(3)->Arg(5);
    for (const auto& [name, solve] : solvers)
        benchmark::RegisterBenchmark((std::string(name) + "/fig5_shape").c_str(),
                                     row_permutation, solve, 0.01)
            ->Arg(1);
    for (const auto& [name, solve] : solvers)
        benchmark::RegisterBenchmark((std::string(name) + "/worn_shape").c_str(),
                                     row_permutation, solve, 0.01)
            ->Arg(25);
    return true;
}();

void BM_RowPermutationExact(benchmark::State& state) {
    const RowInstance inst = row_instance(4, 0.05, static_cast<double>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(best_row_permutation_exact(inst.block, inst.map));
    }
}
BENCHMARK(BM_RowPermutationExact)->Arg(1)->Arg(5);

/// Algorithm 1 on one Fig. 5-shaped batch: a 3x3 grid of 128-row blocks at
/// 1% density over 18 crossbars (the candidates FARe keeps for 9 blocks,
/// max(2b, b + 4)) with 3% clustered faults, half SA1. Times map_batch
/// alone: 9 x 18 row matchings, the removal rules and the assignment.
void BM_MapBatch(benchmark::State& state) {
    Rng rng(5);
    BitMatrix adj(3 * 128, 3 * 128);
    for (auto& bit : adj.bits) bit = rng.next_bool(0.01) ? 1 : 0;
    FaultInjectionConfig cfg;
    cfg.density = 0.03;
    cfg.sa1_fraction = 0.5;
    cfg.seed = 9;
    const std::vector<FaultMap> pool = inject_faults(18, 128, 128, cfg);
    const FaultAwareMapper mapper;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.map_batch(adj, pool));
    }
}
BENCHMARK(BM_MapBatch);

}  // namespace
