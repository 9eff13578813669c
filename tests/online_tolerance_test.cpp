// Online tolerance subsystem tests: soft-fault bookkeeping in FaultMap,
// re-forming semantics in Crossbar, the OnlineToleranceEngine's detection /
// repair / substitution / exhaustion behaviour, and the end-to-end
// guarantees the plan layer relies on:
//
//   * detection and repair logs are a pure function of the spec — an inline
//     run and a pool run of the same online plan are byte-identical;
//   * a crossbar whose spare columns run out degrades to fault-aware remap
//     (residual faults stay in the mitigation view) instead of crashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "reram/accelerator.hpp"
#include "reram/online_tolerance.hpp"
#include "sim/cell.hpp"
#include "sim/cell_cache.hpp"
#include "sim/executor.hpp"
#include "sim/plan.hpp"
#include "sim/serialization.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

/// 4 crossbars of 16x16 — big enough to march, small enough to inspect.
AcceleratorConfig small_config() {
    AcceleratorConfig config;
    config.tile.crossbar_rows = 16;
    config.tile.crossbar_cols = 16;
    config.tile.crossbars_per_tile = 4;
    config.num_tiles = 1;
    return config;
}

/// Store a non-trivial pattern so stuck-ats actually corrupt reads.
void program_pattern(Crossbar& xbar) {
    for (std::uint16_t r = 0; r < xbar.rows(); ++r)
        for (std::uint16_t c = 0; c < xbar.cols(); ++c)
            xbar.program(r, c, static_cast<std::uint8_t>((r + c) % 4));
}

TEST(OnlineToleranceTest, FaultMapTracksSoftFaults) {
    FaultMap map(8, 8);
    map.add(1, 2, FaultType::kSA0);
    map.add(3, 4, FaultType::kSA1, /*soft=*/true);
    EXPECT_EQ(map.num_faults(), 2u);
    EXPECT_EQ(map.num_soft(), 1u);
    EXPECT_FALSE(map.is_soft(1, 2));
    EXPECT_TRUE(map.is_soft(3, 4));

    map.clear(3, 4);
    EXPECT_EQ(map.num_faults(), 1u);
    EXPECT_EQ(map.num_soft(), 0u);
    EXPECT_FALSE(map.is_faulty(3, 4));

    // Overwriting a hard fault with a soft one keeps the counters coherent.
    map.add(1, 2, FaultType::kSA0, /*soft=*/true);
    EXPECT_EQ(map.num_faults(), 1u);
    EXPECT_EQ(map.num_soft(), 1u);
}

TEST(OnlineToleranceTest, ReformClearsSoftFaultsButNotHard) {
    Crossbar xbar(8, 8);
    xbar.program(2, 3, 1);
    FaultMap map(8, 8);
    map.add(2, 3, FaultType::kSA1, /*soft=*/true);
    map.add(4, 5, FaultType::kSA0);
    xbar.set_fault_map(map);

    EXPECT_EQ(xbar.read(2, 3), Crossbar::max_level());  // stuck
    const std::uint64_t writes_before = xbar.writes(2, 3);
    EXPECT_TRUE(xbar.reform(2, 3, 3));
    EXPECT_EQ(xbar.read(2, 3), 1);  // stored level visible again
    // Repair itself wears the cell: every forming pulse is a write.
    EXPECT_EQ(xbar.writes(2, 3), writes_before + 3);

    EXPECT_FALSE(xbar.reform(4, 5, 3));  // hard faults survive the pulses
    EXPECT_TRUE(xbar.fault_map().is_faulty(4, 5));
}

TEST(OnlineToleranceTest, DetectionRoundRepairsSoftFaults) {
    Accelerator accel(small_config());
    Crossbar& xbar = accel.crossbar(0);
    program_pattern(xbar);
    FaultMap map(16, 16);
    map.add(0, 1, FaultType::kSA1, /*soft=*/true);
    map.add(2, 3, FaultType::kSA0, /*soft=*/true);
    xbar.set_fault_map(map);

    OnlinePolicySpec spec;
    spec.detect_period_batches = 1;
    spec.march_window = 4;  // every in-use crossbar is marched
    OnlineToleranceEngine engine(spec);
    const OnlineRoundOutcome outcome =
        engine.detection_round(10, accel, {0, 1, 2, 3});

    EXPECT_TRUE(outcome.state_changed);
    EXPECT_GT(outcome.march_cell_ops, 0u);
    const OnlineToleranceStats& stats = engine.stats();
    EXPECT_EQ(stats.detection_rounds, 1u);
    EXPECT_EQ(stats.faults_detected, 2u);
    EXPECT_EQ(stats.soft_repaired, 2u);
    EXPECT_EQ(stats.repair_writes, 2u * spec.reprogram_pulses);
    // The truth itself is healed: soft stuck-ats are gone after re-forming.
    EXPECT_EQ(accel.crossbar(0).fault_map().num_faults(), 0u);
}

TEST(OnlineToleranceTest, HardColumnsAreSubstitutedBySpares) {
    Accelerator accel(small_config());
    FaultMap map(16, 16);
    map.add(1, 5, FaultType::kSA1);
    map.add(7, 5, FaultType::kSA0);
    map.add(3, 9, FaultType::kSA1);
    accel.crossbar(0).set_fault_map(map);

    OnlinePolicySpec spec;
    spec.detect_period_batches = 1;
    spec.march_window = 1;
    spec.spare_columns = 2;
    OnlineToleranceEngine engine(spec);
    engine.detection_round(0, accel, {0});

    EXPECT_EQ(engine.spares_used(0), 2u);
    EXPECT_FALSE(engine.exhausted(0));
    EXPECT_EQ(engine.stats().columns_substituted, 2u);
    // Mitigation view: faults on substituted columns route to spares.
    const FaultMap view = engine.repaired_map(0, accel.crossbar(0).fault_map());
    EXPECT_EQ(view.num_faults(), 0u);
}

TEST(OnlineToleranceTest, SpareExhaustionDegradesToRemap) {
    Accelerator accel(small_config());
    FaultMap map(16, 16);
    map.add(1, 2, FaultType::kSA1);  // column 2: two faults — the worst,
    map.add(8, 2, FaultType::kSA0);  // claims the single spare
    map.add(3, 6, FaultType::kSA1);
    map.add(5, 9, FaultType::kSA0);
    accel.crossbar(0).set_fault_map(map);

    OnlinePolicySpec spec;
    spec.detect_period_batches = 1;
    spec.march_window = 1;
    spec.spare_columns = 1;
    OnlineToleranceEngine engine(spec);
    engine.detection_round(0, accel, {0});

    EXPECT_EQ(engine.spares_used(0), 1u);
    EXPECT_TRUE(engine.exhausted(0));
    EXPECT_EQ(engine.stats().crossbars_exhausted, 1u);
    // Degradation, not a crash: the residual hard faults stay visible to the
    // fault-aware mapper while the substituted column's faults are gone.
    const FaultMap view = engine.repaired_map(0, accel.crossbar(0).fault_map());
    EXPECT_EQ(view.num_faults(), 2u);
    EXPECT_TRUE(view.is_faulty(3, 6));
    EXPECT_TRUE(view.is_faulty(5, 9));
    EXPECT_FALSE(view.is_faulty(1, 2));
}

TEST(OnlineToleranceTest, DetectionLatencyIsMeasuredFromEarliestArrival) {
    Accelerator accel(small_config());
    OnlinePolicySpec spec;
    spec.detect_period_batches = 1;
    spec.march_window = 1;
    OnlineToleranceEngine engine(spec);

    engine.note_arrivals(10, {0});
    engine.note_arrivals(12, {0});  // later damage doesn't reset the clock
    engine.detection_round(14, accel, {0});

    EXPECT_EQ(engine.stats().latency_samples, 1u);
    EXPECT_EQ(engine.stats().latency_steps_sum, 4u);
    EXPECT_DOUBLE_EQ(engine.stats().mean_detection_latency_steps(), 4.0);
}

TEST(OnlineToleranceTest, ReadbackEscalatesDamageOutsideTheMarchWindow) {
    Accelerator accel(small_config());
    // Crossbar 3 is outside the 1-wide march window of the first round; a
    // soft SA1 on a cell stored below max corrupts its MVM signature.
    FaultMap map(16, 16);
    map.add(4, 7, FaultType::kSA1, /*soft=*/true);
    accel.crossbar(3).set_fault_map(map);

    OnlinePolicySpec tight;
    tight.detect_period_batches = 1;
    tight.march_window = 1;
    tight.readback_tolerance = 0.001;
    OnlineToleranceEngine engine(tight);
    engine.detection_round(0, accel, {0, 1, 2, 3});

    EXPECT_EQ(engine.stats().readback_checks, 3u);
    EXPECT_EQ(engine.stats().faults_detected, 1u);  // escalated and marched
    EXPECT_EQ(engine.stats().soft_repaired, 1u);

    // A loose tolerance swallows the same signature error: no escalation.
    Accelerator accel2(small_config());
    accel2.crossbar(3).set_fault_map(map);
    OnlinePolicySpec loose = tight;
    loose.readback_tolerance = 0.5;
    OnlineToleranceEngine lax(loose);
    lax.detection_round(0, accel2, {0, 1, 2, 3});
    EXPECT_EQ(lax.stats().readback_checks, 3u);
    EXPECT_EQ(lax.stats().faults_detected, 0u);
}

/// Tiny online plan: live wear + soft-error arrivals every 2 steps, both
/// online schemes, 2 epochs. Small enough for tests, busy enough that every
/// cell runs detection rounds and spends repair writes.
ExperimentPlan online_plan() {
    FaultScenario faults = FaultScenario::pre_deployment(0.01, 0.5);
    faults.with_wear(40e3, 0.25).with_arrival_period(2).with_soft_errors(0.003);
    HardwareOverrides hw;
    hw.online.detect_period_batches = 2;
    hw.online.march_window = 8;
    hw.online.spare_columns = 2;
    hw.online.readback_tolerance = 0.05;
    return SweepBuilder("online_tiny")
        .workload(find_workload("PPI", GnnKind::kGCN))
        .scenario(faults)
        .hardware(hw)
        .schemes({Scheme::kOnlineFARe, Scheme::kOnlineNaive})
        .epochs(2)
        .build();
}

/// Same normalization as scripts/fleet_smoke.sh's `fare-run --canonical`.
std::string canonical(const ResultSet& results) {
    std::string out;
    for (const CellResult& cell : results.cells) {
        out += cell_result_to_json(canonicalized(cell));
        out += '\n';
    }
    return out;
}

TEST(OnlineToleranceTest, SerialAndPoolRunsAreByteIdentical) {
    SimSession serial_session({}, std::make_unique<PoolExecutor>(1), nullptr);
    const ResultSet serial = serial_session.run(online_plan());

    SimSession pool_session({}, std::make_unique<PoolExecutor>(2), nullptr);
    const ResultSet pooled = pool_session.run(online_plan());

    ASSERT_EQ(serial.size(), online_plan().size());
    EXPECT_EQ(canonical(serial), canonical(pooled));

    // Every online cell paid real detection and repair costs.
    for (const CellResult& cell : serial) {
        EXPECT_GT(cell.run.online.detection_rounds, 0u) << cell.spec.label();
        EXPECT_GT(cell.run.online.detect_seconds, 0.0) << cell.spec.label();
        EXPECT_GT(cell.run.online.repair_writes, 0u) << cell.spec.label();
    }
}

TEST(OnlineToleranceTest, ExhaustedSparesDegradeToRemapDuringTraining) {
    // Zero spare columns: the first march of any hard-faulted crossbar
    // exhausts its (empty) spare budget. The run must complete — residual
    // faults fall back to fault-aware remap — and the exhaustion must be
    // visible in the serialized stats.
    CellSpec spec;
    spec.workload = find_workload("PPI", GnnKind::kGCN);
    spec.scheme = Scheme::kOnlineFARe;
    spec.faults = FaultScenario::pre_deployment(0.02, 0.5);
    spec.faults.with_wear(20e3, 0.5).with_arrival_period(2).with_soft_errors(
        0.004);
    spec.hardware.online.detect_period_batches = 2;
    spec.hardware.online.spare_columns = 0;
    spec.epochs = 2;

    const CellResult result = run_cell(spec);
    EXPECT_GT(result.run.online.crossbars_exhausted, 0u);
    EXPECT_GT(result.run.online.detection_rounds, 0u);
    EXPECT_GT(result.accuracy(), 0.0);
}

}  // namespace
}  // namespace fare
