// Wear / lifetime study: how long can the edge device keep training as its
// cells wear out under write endurance?
//
//   $ ./wear_lifetime [endurance_kwrites=500] [hot_spot_fraction=0.25]
//
// Earlier revisions approximated wear as a ladder of independent
// re-deployments at increasing pre-set fault densities. This version uses
// the *live* wear model (reram/wear_model.hpp): every training step charges
// writes to the crossbars in use, each cell draws a Weibull write lifetime,
// and worn-out cells become stuck mid-run — with arrival checkpoints every
// 2 training steps, so faults land inside epochs, not just between them.
// One declarative SweepBuilder plan sweeps device endurance classes
// (binned chips: the CLI argument scales the middle class) for
// fault-unaware vs FARe, executed in parallel by SimSession.
#include <cstdlib>
#include <iostream>

#include "common/error.hpp"
#include "common/table.hpp"
#include "sim/result_sink.hpp"
#include "sim/session.hpp"

int main(int argc, char** argv) {
    using namespace fare;
    // Default tuned to the registry's 40-epoch budget: Reddit runs 12 steps
    // per epoch at 1000 writes each (~480k writes per crossbar), so the
    // nominal 500k-write class sits right at the wear-out knee. With
    // FARE_EPOCHS=3 smoke runs, pass a proportionally smaller endurance.
    const Expected<double> endurance_arg =
        argc > 1 ? parse_double(argv[1]) : Expected<double>(500.0);
    const Expected<double> hot_arg =
        argc > 2 ? parse_double(argv[2]) : Expected<double>(0.25);
    const double endurance_kwrites = endurance_arg.value_or(-1.0);
    const double hot = hot_arg.value_or(-1.0);
    if (endurance_kwrites <= 0.0 || hot < 0.0 || hot > 1.0) {
        std::cerr << "usage: wear_lifetime [endurance_kwrites] "
                     "[hot_spot_fraction]\n  endurance is the mean cell "
                     "lifetime in thousands of writes (> 0), hot-spot "
                     "fraction lies in [0, 1]\n";
        return 2;
    }

    const WorkloadSpec workload = find_workload("Reddit", GnnKind::kGCN);
    std::cout << "=== Lifetime study: " << workload.label()
              << ", 1% manufacturing SAFs, live wear around "
              << endurance_kwrites << "k writes, " << fmt_pct(hot, 0)
              << " hot spots ===\n\n";

    // Device endurance classes around the requested mean: half, nominal,
    // double, plus the unworn reference (endurance 0 disables wear). Each
    // training step charges 1000 array writes so the endurance knob reads
    // in realistic units.
    WearSpec wear;
    wear.writes_per_step = 1000;
    wear.hot_spot_fraction = hot;
    FaultScenario scenario = FaultScenario::pre_deployment(0.01, 0.5);
    scenario.with_wear(wear).with_arrival_period(2);
    const std::vector<double> endurances{0.0, endurance_kwrites * 500.0,
                                         endurance_kwrites * 1000.0,
                                         endurance_kwrites * 2000.0};

    const ExperimentPlan plan =
        SweepBuilder("wear_lifetime")
            .workload(workload)
            .scenario(scenario)
            .axis(&WearSpec::endurance_mean_writes, endurances)
            .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
            .seed(1)
            .build();

    SessionOptions options;
    options.progress = &std::cout;
    // A wear sweep is the canonical long-running study: point FARE_CACHE_DIR
    // at a directory and a killed run resumes at the first unfinished cell.
    if (const char* cache_dir = std::getenv("FARE_CACHE_DIR"))
        options.cache_dir = cache_dir;
    SimSession session(options);
    // Finished cells appear in BENCH_*.json.tmp as the sweep runs; the
    // final file publishes atomically at plan end.
    session.add_sink(std::make_unique<JsonLinesSink>());
    const ResultSet results = session.run(plan);

    Table t({"Endurance", "fault-unaware", "FARe", "FARe margin",
             "worn cells (FARe)"});
    for (const double endurance : endurances) {
        const CellResult& fu = results.at_wear(Scheme::kFaultUnaware, endurance);
        const CellResult& fare = results.at_wear(Scheme::kFARe, endurance);
        t.add_row({endurance <= 0.0 ? "no wear"
                                    : fmt(endurance / 1e3, 0) + "k writes",
                   fmt(fu.accuracy(), 3), fmt(fare.accuracy(), 3),
                   fmt_pct(fare.accuracy() - fu.accuracy(), 1),
                   std::to_string(fare.run.wear_faults)});
    }
    std::cout << t.to_ascii() << '\n'
              << "Shorter-endurance device classes lose cells mid-run; FARe's\n"
                 "arrival-triggered BIST + re-permutation keeps training on\n"
                 "its feet long after naive training collapses.\n";
    return 0;
}
