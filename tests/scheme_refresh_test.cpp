// Scheme refresh golden: every faulty scheme trains PPI (GCN) through fault
// arrivals, so each one's fault-state refresh path runs — BIST rescans,
// NR/FARe re-permutation, the redundant-columns repair and the online
// engine's detection rounds. Each cell's record, measured times zeroed, must
// match tests/golden/scheme_refresh.txt byte for byte: the records pin
// bist_scans, wear, mapping cost and the online stats as well as accuracy.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/registry.hpp"
#include "sim/serialization.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

std::vector<Scheme> faulty_schemes() {
    std::vector<Scheme> out;
    for (const Scheme s : all_schemes())
        if (s != Scheme::kFaultFree) out.push_back(s);
    return out;
}

/// The online_tolerance plan's policy; the offline schemes ignore it.
HardwareOverrides online_policy() {
    HardwareOverrides hw;
    hw.online.detect_period_batches = 2;
    hw.online.march_window = 8;
    hw.online.spare_columns = 4;
    hw.online.readback_tolerance = 0.05;
    return hw;
}

/// (A) Uniform post-deployment arrivals at epoch ends only.
ExperimentPlan epoch_end_arrivals() {
    FaultScenario scenario = FaultScenario::pre_deployment(0.03, 0.5);
    scenario.with_post_deployment(0.02);
    return SweepBuilder("epoch_end_arrivals")
        .workload(find_workload("PPI", GnnKind::kGCN))
        .scenario(scenario)
        .hardware(online_policy())
        .schemes(faulty_schemes())
        .epochs(3)
        .build();
}

/// (B) The online_tolerance damage model: live wear with hot spots and
/// soft errors, arriving every 2 training steps.
ExperimentPlan mid_epoch_arrivals() {
    WearSpec wear;
    wear.endurance_mean_writes = 40e3;
    wear.weibull_shape = 2.0;
    wear.hot_spot_fraction = 0.25;
    wear.hot_spot_severity = 8.0;
    wear.writes_per_step = 1000;
    FaultScenario scenario = FaultScenario::pre_deployment(0.01, 0.5);
    scenario.with_wear(wear).with_arrival_period(2).with_soft_errors(0.004);
    return SweepBuilder("mid_epoch_arrivals")
        .workload(find_workload("PPI", GnnKind::kGCN))
        .scenario(scenario)
        .hardware(online_policy())
        .schemes(faulty_schemes())
        .epochs(2)
        .build();
}

TEST(SchemeRefreshTest, EveryFaultySchemeMatchesTheGolden) {
    std::vector<std::string> labels;
    std::ostringstream actual;
    for (const ExperimentPlan& plan : {epoch_end_arrivals(), mid_epoch_arrivals()}) {
        ASSERT_EQ(plan.size(), faulty_schemes().size()) << plan.name;
        for (const CellSpec& cell : plan.cells) {
            labels.push_back(plan.name + ": " + cell.label());
            actual << cell_result_to_json(canonicalized(run_cell(cell))) << '\n';
        }
    }
    std::ifstream in(FARE_GOLDEN_DIR "/scheme_refresh.txt", std::ios::binary);
    std::ostringstream golden;
    golden << in.rdbuf();
    if (actual.str() == golden.str()) return;

    // Keep the actual records for inspection (or, after an intended change,
    // as the new golden).
    std::ofstream("scheme_refresh.actual.txt", std::ios::binary) << actual.str();
    std::istringstream got(actual.str()), want(golden.str());
    std::string got_line, want_line;
    for (const std::string& label : labels) {
        std::getline(got, got_line);
        if (!std::getline(want, want_line)) want_line.clear();
        EXPECT_EQ(got_line, want_line) << label;
    }
    ADD_FAILURE() << "records differ from " FARE_GOLDEN_DIR
                     "/scheme_refresh.txt; actual written to "
                     "scheme_refresh.actual.txt";
}

}  // namespace
}  // namespace fare
