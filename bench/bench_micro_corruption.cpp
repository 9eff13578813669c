// Micro-benchmarks for the fault-overlay hot path: what the training loop
// pays per batch to turn logical weights into effective (corrupted) weights,
// and an end-to-end fig4-style training cell as the wall-clock summary.
//
// Run via scripts/bench.sh; results land in bench/out/BENCH_micro_*.json.
// bench/out/ also carries committed pre-PR baselines for the same benchmark
// names, so speedup ratios can be read off two JSON files.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "fare/fare_trainer.hpp"
#include "fare/scenario.hpp"
#include "models/gnn/trainer.hpp"
#include "oracle/corruption_reference.hpp"
#include "reram/compiled_overlay.hpp"
#include "reram/corruption.hpp"
#include "sim/registry.hpp"

namespace {

using namespace fare;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.flat()) v = rng.uniform(-1.0f, 1.0f);
    return m;
}

/// A realistic weight region: 256x64 weights on 128x128 crossbars with the
/// given fault density (permille) at the paper's 9:1 SA0:SA1 ratio.
struct CorruptionFixture {
    Matrix w;
    WeightFaultGrid grid;

    explicit CorruptionFixture(int density_permille) {
        Rng rng(7);
        const std::size_t rows = 256, cols = 64;
        w = random_matrix(rows, cols, rng);
        FaultInjectionConfig cfg;
        cfg.density = static_cast<double>(density_permille) / 1000.0;
        cfg.sa1_fraction = 0.1;
        cfg.seed = 13;
        const std::size_t grid_r = (rows + 127) / 128;
        const std::size_t grid_c = (cols * 8 + 127) / 128;
        const auto maps = inject_faults(grid_r * grid_c, 128, 128, cfg);
        grid = WeightFaultGrid(rows, cols, maps);
    }
};

/// One-shot corruption at a given fault density (argument is permille so
/// 100 == the paper's 10%): compile an overlay and apply it, every
/// iteration. This is the number the acceptance criterion tracks against the
/// committed pre-PR baseline.
void BM_CorruptWeights(benchmark::State& state) {
    const CorruptionFixture fx(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            CompiledFaultOverlay(fx.grid, fx.w.rows(), fx.w.cols()).apply(fx.w, 2.0f));
    }
    state.counters["faults"] = static_cast<double>(fx.grid.num_faults());
    state.counters["ns_per_weight"] = benchmark::Counter(
        static_cast<double>(fx.w.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_CorruptWeights)->Arg(10)->Arg(50)->Arg(100)->Arg(150);

/// The pre-overlay scalar implementation (8 checked slice_fault lookups per
/// weight through corrupt_fixed), kept as the test oracle
/// corrupt_weights_reference. The in-binary baseline for the compiled path's
/// speedup.
void BM_CorruptWeightsReference(benchmark::State& state) {
    const CorruptionFixture fx(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(corrupt_weights_reference(fx.w, fx.grid, 2.0f));
    }
    state.counters["ns_per_weight"] = benchmark::Counter(
        static_cast<double>(fx.w.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_CorruptWeightsReference)->Arg(10)->Arg(100);

/// The hot-loop shape after the tentpole: the overlay is compiled once per
/// fault event (epoch boundary) and only applied per batch.
void BM_CompiledOverlayApply(benchmark::State& state) {
    const CorruptionFixture fx(static_cast<int>(state.range(0)));
    const CompiledFaultOverlay overlay(fx.grid, fx.w.rows(), fx.w.cols());
    for (auto _ : state) {
        benchmark::DoNotOptimize(overlay.apply(fx.w, 2.0f));
    }
    state.counters["faulty_weights"] =
        static_cast<double>(overlay.num_faulty_weights());
    state.counters["ns_per_weight"] = benchmark::Counter(
        static_cast<double>(fx.w.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_CompiledOverlayApply)->Arg(10)->Arg(100);

/// Cost of (re)compiling the overlay — paid once per BIST rescan / NR
/// re-permutation, i.e. per epoch, not per batch.
void BM_CompiledOverlayCompile(benchmark::State& state) {
    const CorruptionFixture fx(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            CompiledFaultOverlay(fx.grid, fx.w.rows(), fx.w.cols()));
    }
}
BENCHMARK(BM_CompiledOverlayCompile)->Arg(10)->Arg(100);

/// Row-permuted variant (the neuron-reordering baseline's shape): compile
/// and apply per iteration, like BM_CorruptWeights.
void BM_CorruptWeightsPermuted(benchmark::State& state) {
    const CorruptionFixture fx(static_cast<int>(state.range(0)));
    std::vector<std::uint16_t> perm(fx.w.rows());
    for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<std::uint16_t>(perm.size() - 1 - i);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            CompiledFaultOverlay(fx.grid, fx.w.rows(), fx.w.cols(), perm).apply(fx.w, 2.0f));
    }
}
BENCHMARK(BM_CorruptWeightsPermuted)->Arg(100);

/// End-to-end fig4-style training cell: Reddit (GCN), fault-unaware scheme,
/// 5% pre-deployment density, 9:1 ratio, fixed 12 epochs. Wall-clock of the
/// whole train-and-evaluate loop — the number the tentpole must improve 2x.
void BM_Fig4TrainingCell(benchmark::State& state) {
    const WorkloadSpec workload = find_workload("Reddit", GnnKind::kGCN);
    const Dataset dataset = workload.make_dataset(1);
    TrainConfig tc = workload.train_config(1);
    tc.epochs = 12;  // fixed: independent of FARE_EPOCHS
    tc.record_curve = true;
    const FaultScenario scenario = FaultScenario::pre_deployment(0.05, 0.1);
    const TrainerFactory trainers = [&](HardwareModel* hw) {
        return std::make_unique<Trainer>(dataset, tc, hw);
    };
    double accuracy = 0.0;
    for (auto _ : state) {
        const SchemeRunResult r = run_scheme(trainers, Scheme::kFaultUnaware, tc,
                                             scenario, HardwareOverrides{}, 1);
        // No DoNotOptimize on the double: it is observed through the counter
        // below (and a "+m,r"-constraint DoNotOptimize corrupts it on GCC 12
        // at -O2).
        accuracy = r.train.test_accuracy;
    }
    state.counters["test_accuracy"] = accuracy;
}
BENCHMARK(BM_Fig4TrainingCell)->Unit(benchmark::kMillisecond);

}  // namespace
