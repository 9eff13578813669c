// Micro-benchmarks for the ReRAM simulator primitives: bit-sliced MVM, the
// value-corruption fast path (what the training loop uses), BIST scans,
// wear-out checkpoints and fault injection. Quantifies the speedup of the
// corruption path over the bit-exact engine it must equal
// (docs/performance.md, *Equivalence contract*).
#include <benchmark/benchmark.h>

#include <optional>

#include "common/rng.hpp"
#include "oracle/corruption_reference.hpp"
#include "oracle/mvm_engine.hpp"
#include "reram/accelerator.hpp"
#include "reram/bist.hpp"
#include "reram/compiled_overlay.hpp"
#include "reram/wear_model.hpp"

namespace {

using namespace fare;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.flat()) v = rng.uniform(-1.0f, 1.0f);
    return m;
}

void BM_BitSlicedMvm(benchmark::State& state) {
    const auto rows = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    const Matrix w = random_matrix(rows, 16, rng);
    const Matrix x = random_matrix(8, rows, rng);
    ProgrammedWeights pw(rows, 16);
    pw.program(w);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pw.mvm(x));
    }
}
BENCHMARK(BM_BitSlicedMvm)->Arg(32)->Arg(64)->Arg(128);

void BM_CorruptionFastPath(benchmark::State& state) {
    const auto rows = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    const Matrix w = random_matrix(rows, 16, rng);
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.seed = 3;
    const std::size_t grid_r = (rows + 127) / 128;
    const auto maps = inject_faults(grid_r, 128, 128, cfg);
    const WeightFaultGrid grid(rows, 16, maps);
    for (auto _ : state) {
        benchmark::DoNotOptimize(CompiledFaultOverlay(grid, rows, 16).apply(w, 2.0f));
    }
}
BENCHMARK(BM_CorruptionFastPath)->Arg(32)->Arg(64)->Arg(128);

void BM_BistScan(benchmark::State& state) {
    Crossbar xbar(128, 128);
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.seed = 5;
    xbar.set_fault_map(inject_faults(1, 128, 128, cfg).front());
    for (auto _ : state) {
        benchmark::DoNotOptimize(bist_scan(xbar));
    }
}
BENCHMARK(BM_BistScan);

// The wear_arrival plan's wear: one tile of 96 crossbars of 128x128, a
// quarter of them hot spots, 40k-write mean lifetimes, 1000 array writes per
// training step and an arrival checkpoint every 2 steps over 10 steps. The
// chip and the model are built (and torn down) outside the timed region.
void BM_WearAdvance(benchmark::State& state) {
    AcceleratorConfig config;
    config.num_tiles = 1;
    WearSpec spec;
    spec.endurance_mean_writes = 40e3;
    spec.hot_spot_fraction = 0.25;
    std::optional<Accelerator> chip;
    std::optional<WearModel> model;
    std::size_t arrivals = 0;
    for (auto _ : state) {
        state.PauseTiming();
        chip.emplace(config);
        model.emplace(chip->num_crossbars(), config.tile.crossbar_rows,
                      config.tile.crossbar_cols, spec, 0.1, 7);
        state.ResumeTiming();
        for (int step = 1; step <= 10; ++step) {
            for (std::size_t x = 0; x < chip->num_crossbars(); ++x)
                chip->crossbar(x).add_uniform_writes(1000);
            if (step % 2 == 0) arrivals += model->advance(*chip).size();
        }
    }
    state.counters["arrivals"] = benchmark::Counter(
        static_cast<double>(arrivals), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WearAdvance)->Unit(benchmark::kMillisecond);

void BM_FaultInjection(benchmark::State& state) {
    const auto crossbars = static_cast<std::size_t>(state.range(0));
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    std::uint64_t seed = 0;
    for (auto _ : state) {
        cfg.seed = ++seed;
        benchmark::DoNotOptimize(inject_faults(crossbars, 128, 128, cfg));
    }
}
BENCHMARK(BM_FaultInjection)->Arg(16)->Arg(96);

void BM_AdjacencyCorruption(benchmark::State& state) {
    Rng rng(7);
    BinaryBlock block;
    block.size = 128;
    block.bits.assign(128 * 128, 0);
    for (auto& b : block.bits) b = rng.next_bool(0.05) ? 1 : 0;
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.seed = 9;
    const FaultMap map = inject_faults(1, 128, 128, cfg).front();
    const auto perm = identity_perm(128);
    for (auto _ : state) {
        benchmark::DoNotOptimize(corrupt_adjacency_block(block, map, perm));
    }
}
BENCHMARK(BM_AdjacencyCorruption);

}  // namespace
