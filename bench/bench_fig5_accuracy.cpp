// Fig. 5 — test accuracy of the trained GNN across six dataset/model
// combinations, three fault densities, five schemes, and both SA0:SA1
// ratios.
//
//   (a) SA0:SA1 = 9:1  (characterised fault ratio [6])
//   (b) SA0:SA1 = 1:1  (pessimistic ratio)
//
// This is the paper's headline figure. The full grid is one declarative
// plan executed by SimSession across a worker pool (FARE_THREADS=1 forces a
// serial run — results are bit-identical either way); the fault-free
// reference listed in every density row is memoized into a single run per
// workload. Expected shape per cell group: fault-unaware collapses with
// density; NR recovers partially (worst of the mitigations, much worse at
// 1:1); clipping-only sits between (adjacency faults unaddressed); FARe
// within ~1% (9:1) / ~2% (1:1) of fault-free.
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "sim/result_sink.hpp"
#include "sim/session.hpp"

int main() {
    using namespace fare;
    const std::vector<double> densities{0.01, 0.03, 0.05};
    const std::vector<double> sa1_fractions{0.1, 0.5};

    const ExperimentPlan plan = SweepBuilder("fig5_accuracy")
                                    .workloads(fig5_workloads())
                                    .axis(&FaultScenario::density, densities)
                                    .axis(&FaultScenario::sa1_fraction, sa1_fractions)
                                    .schemes(figure_schemes())
                                    .seed(1)
                                    .build();

    SessionOptions options;
    options.progress = &std::cout;
    // FARE_CACHE_DIR persists executed cells on disk: an interrupted grid
    // resumes where it stopped, and a nightly re-run reuses unchanged cells.
    if (const char* cache_dir = std::getenv("FARE_CACHE_DIR"))
        options.cache_dir = cache_dir;
    SimSession session(options);
    // JSON lines land in the BENCH_*.json.tmp staging file as the completed
    // plan prefix grows (tail it to watch a long grid), published to
    // BENCH_*.json by an atomic rename when the plan ends.
    session.add_sink(std::make_unique<JsonLinesSink>());
    // The figure tables themselves come from the pivot sink — one panel per
    // SA1 ratio, one accuracy column per scheme, FARe drop appended — so the
    // bench no longer hand-assembles rows from ResultSet lookups.
    auto& pivot = static_cast<PivotSink&>(
        session.add_sink(std::make_unique<PivotSink>()));
    std::cout << "Fig. 5 grid: " << plan.size() << " cells on "
              << session.threads() << " threads\n";
    const ResultSet results = session.run(plan);
    std::cout << "(" << session.cache_hits()
              << " cells served from the fault-free memo)\n\n";

    for (const PivotSink::Panel& panel : pivot.panels()) {
        const char* caption = panel.sa1_fraction < 0.25 ? "(a) 9:1" : "(b) 1:1";
        std::cout << "=== Fig. 5" << caption
                  << " SA0:SA1 — test accuracy ===\n\n"
                  << panel.table.to_ascii() << '\n';
    }

    std::cout << "Accuracy restoration example (paper: 47.6% on Reddit at 1:1):\n";
    {
        const WorkloadSpec w = find_workload("Reddit", GnnKind::kGCN);
        const double fu = results.accuracy(w, Scheme::kFaultUnaware, 0.05, 0.5);
        const double fare = results.accuracy(w, Scheme::kFARe, 0.05, 0.5);
        std::cout << "  Reddit (GCN), 5%, 1:1: fault-unaware " << fmt(fu, 3)
                  << " -> FARe " << fmt(fare, 3) << "  (restored "
                  << fmt_pct(fare - fu, 1) << ")\n";
    }
    return 0;
}
