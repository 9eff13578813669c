// Fig. 6 — accuracy with pre-deployment faults PLUS 1% additional
// post-deployment faults accumulating uniformly across epochs (worst case:
// wear adds faults after every epoch).
//
//   (a) SA0:SA1 = 9:1    (b) SA0:SA1 = 1:1
//
// Workloads: PPI (GAT), Reddit (GCN), Amazon2M (SAGE); pre-deployment
// densities 1/2/3%. One declarative plan over a FaultScenario with a
// post-deployment arrival schedule, run in parallel by SimSession. Expected
// shape: FARe loses at most ~2% (paper: 1.9%) thanks to the per-epoch BIST
// rescan + row re-permutation; NR loses up to ~15%.
#include <iostream>

#include "common/table.hpp"
#include "sim/result_sink.hpp"
#include "sim/session.hpp"

int main() {
    using namespace fare;
    const std::vector<double> densities{0.01, 0.02, 0.03};
    const std::vector<double> sa1_fractions{0.1, 0.5};

    // +1% over the whole run, expressed as a first-class builder axis (the
    // SA1 ratio of the wear stream follows the per-cell pre-deployment
    // ratio — the builder mirrors it). post_epochs 0 = spread across the
    // full training run.
    const ExperimentPlan plan = SweepBuilder("fig6_postdeploy")
                                    .workloads(fig6_workloads())
                                    .axis(&FaultScenario::density, densities)
                                    .axis(&FaultScenario::sa1_fraction, sa1_fractions)
                                    .axis(&FaultScenario::post_total_density, {0.01})
                                    .axis(&FaultScenario::post_epochs, {0})
                                    .schemes(figure_schemes())
                                    .seed(1)
                                    .build();

    SessionOptions options;
    options.progress = &std::cout;
    SimSession session(options);
    session.add_sink(std::make_unique<JsonLinesSink>());
    std::cout << "Fig. 6 grid: " << plan.size() << " cells on "
              << session.threads() << " threads\n";
    const ResultSet results = session.run(plan);

    for (const double sa1 : sa1_fractions) {
        const char* panel = sa1 < 0.25 ? "(a) 9:1" : "(b) 1:1";
        std::cout << "\n=== Fig. 6" << panel
                  << " SA0:SA1 — pre + 1% post-deployment faults ===\n\n";

        Table t({"Workload", "Pre-density", "fault-free", "fault-unaware", "NR",
                 "Weight Clipping", "FARe", "FARe drop"});
        for (const WorkloadSpec& w : fig6_workloads()) {
            const double ff = results.accuracy(w, Scheme::kFaultFree);
            for (const double density : densities) {
                const double fare =
                    results.accuracy(w, Scheme::kFARe, density, sa1);
                t.add_row(
                    {w.label(), fmt_pct(density, 0), fmt(ff, 3),
                     fmt(results.accuracy(w, Scheme::kFaultUnaware, density, sa1), 3),
                     fmt(results.accuracy(w, Scheme::kNeuronReorder, density, sa1), 3),
                     fmt(results.accuracy(w, Scheme::kClippingOnly, density, sa1), 3),
                     fmt(fare, 3), fmt_pct(ff - fare, 1)});
            }
        }
        std::cout << t.to_ascii() << '\n';
    }
    return 0;
}
