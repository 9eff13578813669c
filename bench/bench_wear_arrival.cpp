// Live wear / online arrival sweep: endurance-driven stuck-at arrivals
// landing *mid-epoch* while training runs, swept over write-endurance mean x
// hot-spot fraction for fault-unaware vs FARe.
//
// The plan is the built-in "wear_arrival" (sim/builtin_plans.hpp), so the
// exact same sweep shards across processes:
//
//   scripts/shard_run.sh wear_arrival 4 merged.json --canonical
//
// merges bit-identical to this bench's single-process run (the CI
// shard-smoke job diffs the two). docs/fault_models.md documents every knob
// the sweep uses. Expected shape: at the shortest endurance most in-use
// cells wear out mid-run and fault-unaware training collapses while FARe's
// arrival-triggered re-permutation holds; hot spots concentrate the same
// wear budget into fewer crossbars, which FARe's block placement can route
// around but uniform wear cannot be.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "sim/builtin_plans.hpp"
#include "sim/result_sink.hpp"
#include "sim/session.hpp"

int main() {
    using namespace fare;
    const ExperimentPlan plan = wear_arrival_plan();

    SessionOptions options;
    options.progress = &std::cout;
    // The canonical long-running wear study: FARE_CACHE_DIR resumes a
    // killed sweep at the first unfinished cell.
    if (const char* cache_dir = std::getenv("FARE_CACHE_DIR"))
        options.cache_dir = cache_dir;
    SimSession session(options);
    session.add_sink(std::make_unique<JsonLinesSink>());
    std::cout << "wear_arrival sweep: " << plan.size() << " cells on "
              << session.threads() << " threads\n";
    const ResultSet results = session.run(plan);

    // Recover the axis values from the plan itself (first-appearance order)
    // so the table never drifts from the builder.
    std::vector<double> endurances, hots;
    for (const CellSpec& spec : plan.cells) {
        const double e = spec.faults.wear.endurance_mean_writes;
        const double h = spec.faults.wear.hot_spot_fraction;
        if (std::find(endurances.begin(), endurances.end(), e) == endurances.end())
            endurances.push_back(e);
        if (std::find(hots.begin(), hots.end(), h) == hots.end())
            hots.push_back(h);
    }

    std::cout << "\n=== Live wear: accuracy under endurance-driven mid-epoch "
                 "arrivals (PPI GCN, 1% manufacturing SAFs) ===\n\n";
    Table t({"Endurance mean", "Hot spots", "fault-unaware", "FARe",
             "FARe margin", "worn cells (FARe)"});
    for (const double endurance : endurances) {
        for (const double hot : hots) {
            const CellResult& fu =
                results.at_wear(Scheme::kFaultUnaware, endurance, hot);
            const CellResult& fare = results.at_wear(Scheme::kFARe, endurance, hot);
            t.add_row({fmt(endurance / 1e3, 0) + "k writes",
                       hot > 0.0 ? fmt_pct(hot, 0) + " @ 8x" : "none",
                       fmt(fu.accuracy(), 3), fmt(fare.accuracy(), 3),
                       fmt_pct(fare.accuracy() - fu.accuracy(), 1),
                       std::to_string(fare.run.wear_faults)});
        }
    }
    std::cout << t.to_ascii() << '\n'
              << "Arrivals land every 2 training steps; overlays and "
                 "effective-state stamps\nrefresh only at steps where cells "
                 "actually wore out (see docs/fault_models.md).\n";
    return 0;
}
