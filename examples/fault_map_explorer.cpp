// Fault-map explorer: inject stuck-at faults into a simulated accelerator,
// run the BIST scan, and inspect what FARe's mapper does with the result.
//
//   $ ./fault_map_explorer [density=0.05] [sa1_fraction=0.1] [cluster=1.5]
//
// Shows: per-crossbar fault statistics (the clustered "fault centres"), the
// BIST detection fidelity, and — for one adjacency block — the mapping
// decision (chosen crossbar, row permutation, residual mismatches).
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fare/baselines.hpp"
#include "fare/mapper.hpp"
#include "reram/accelerator.hpp"

int main(int argc, char** argv) {
    using namespace fare;
    const double density =
        (argc > 1 ? parse_double(argv[1]) : Expected<double>(0.05)).value_or(-1.0);
    const double sa1_fraction =
        (argc > 2 ? parse_double(argv[2]) : Expected<double>(0.1)).value_or(-1.0);
    const double cluster =
        (argc > 3 ? parse_double(argv[3]) : Expected<double>(1.5)).value_or(-1.0);
    if (density < 0.0 || density > 1.0 || sa1_fraction < 0.0 ||
        sa1_fraction > 1.0 || cluster < 0.0) {
        std::cerr << "usage: fault_map_explorer [density] [sa1_fraction] "
                     "[cluster]\n  density and sa1_fraction must be in [0,1], "
                     "cluster >= 0\n";
        return 2;
    }

    std::cout << "Injecting faults: density " << fmt_pct(density, 1) << ", SA1 "
              << fmt_pct(sa1_fraction, 0) << " of faults, cluster shape "
              << cluster << "\n\n";

    // Describe the chip declaratively, then build it the way a training run
    // does and take a copy of its accelerator to scan.
    FaultScenario scenario = FaultScenario::pre_deployment(density, sa1_fraction);
    scenario.cluster_shape = cluster;
    const FaultyHardware chip(
        Scheme::kFaultUnaware,
        to_hardware_config(scenario, HardwareOverrides{}, /*seed=*/1,
                           /*train_epochs=*/100));
    Accelerator acc = chip.accelerator();

    // BIST scan and detection fidelity.
    const auto truth = acc.true_fault_maps();
    const auto detected = acc.bist_scan_all();
    std::size_t truth_total = 0, detected_total = 0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        truth_total += truth[i].num_faults();
        detected_total += detected[i].num_faults();
    }
    std::cout << "BIST scan: " << detected_total << " faults detected / "
              << truth_total << " injected ("
              << (detected_total == truth_total ? "exact" : "MISMATCH") << ")\n\n";

    // Per-crossbar histogram: the clustered fault centres.
    std::vector<std::size_t> counts;
    for (const auto& m : detected) counts.push_back(m.num_faults());
    std::sort(counts.begin(), counts.end());
    Table hist({"Percentile", "Faults per crossbar", "Density"});
    for (const double p : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
        const std::size_t idx = std::min(
            counts.size() - 1,
            static_cast<std::size_t>(p * static_cast<double>(counts.size())));
        hist.add_row({fmt_pct(p, 0), std::to_string(counts[idx]),
                      fmt_pct(static_cast<double>(counts[idx]) / (128.0 * 128.0), 2)});
    }
    std::cout << "Cross-crossbar fault distribution (96 crossbars):\n"
              << hist.to_ascii() << '\n';

    // One mapping decision end to end.
    Rng rng(2);
    BitMatrix adj(256, 256);
    for (std::size_t r = 0; r < 256; ++r)
        for (std::size_t c = r + 1; c < 256; ++c)
            if (rng.next_bool(0.06)) {
                adj.set(r, c, 1);
                adj.set(c, r, 1);
            }
    MapperConfig mcfg;
    mcfg.max_crossbar_candidates = 12;
    FaultAwareMapper mapper(mcfg);
    const AdjacencyMapping mapping = mapper.map_batch(adj, detected);

    Table decisions({"Block", "Crossbar", "Crossbar faults (SA0/SA1)",
                     "Residual weighted cost"});
    for (const auto& a : mapping.assignments) {
        const auto& m = detected[a.crossbar_index];
        decisions.add_row({std::to_string(a.block_index),
                           std::to_string(a.crossbar_index),
                           std::to_string(m.num_sa0()) + "/" +
                               std::to_string(m.num_sa1()),
                           fmt(a.cost, 1)});
    }
    std::cout << "FARe mapping of a 256x256 batch adjacency (4 blocks of 128):\n"
              << decisions.to_ascii() << '\n';
    const AdjacencyMapping naive = mapper.map_identity(adj, detected);
    std::cout << "Residual cost: FARe " << fmt(mapping.total_cost(), 1)
              << " vs naive placement " << fmt(naive.total_cost(), 1) << " ("
              << fmt(naive.total_cost() / std::max(mapping.total_cost(), 1.0), 1)
              << "x worse)\n";
    return 0;
}
