#include "workloads.hpp"

#include "sim/builtin_plans.hpp"
#include "sim/registry.hpp"

namespace perfbench {

namespace {

/// Copy `plan`'s cells once per seed, each copy pinned to that seed and
/// `epochs` epochs.
void append_reseeded(const fare::ExperimentPlan& plan,
                     const std::vector<std::uint64_t>& seeds, std::size_t epochs,
                     fare::ExperimentPlan& out) {
    for (const std::uint64_t seed : seeds) {
        for (fare::CellSpec cell : plan.cells) {
            cell.seed = seed;
            cell.epochs = epochs;
            out.cells.push_back(std::move(cell));
        }
    }
}

/// splitmix64: decorrelates seeds that differ in a few bits.
std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Per-cell hash of the coordinates key() sees, seeds cleared.
std::vector<std::uint64_t> coordinate_hashes(const fare::ExperimentPlan& plan) {
    std::vector<std::uint64_t> out;
    for (fare::CellSpec coords : plan.cells) {
        coords.seed = 0;
        coords.hardware_seed.reset();
        out.push_back(fnv1a(coords.key()));
    }
    return out;
}

/// Give every cell its own fault-injection seed, derived from `seed`, the
/// cell's coordinates and its dataset seed; datasets stay on the seed each
/// cell already has. With one fault seed for a whole plan, every cell's
/// mapping and wear cost moved together from seed to seed (the FARe cells'
/// total by 20%); independent draws average that out within a run. Cells
/// that shared a key still do: the coordinates leave out exactly what key()
/// does. `coords` is coordinate_hashes(plan), which does not depend on the
/// seeds, so callers compute it once and set-up time stays the program's.
void derive_hardware_seeds(fare::ExperimentPlan& plan, std::uint64_t seed,
                           const std::vector<std::uint64_t>& coords) {
    for (std::size_t i = 0; i < plan.cells.size(); ++i)
        plan.cells[i].hardware_seed = mix(seed ^ coords[i] ^ mix(plan.cells[i].seed));
}

/// The built-in Fig. 5 grid (6 GNN workloads x densities {1,3,5}% x SA1
/// {10,50}% x the 5 figure schemes = 180 cells, 150 after the fault-free
/// dedup) at 2 epochs. Every cell trains on the shared seed S, so each
/// dataset is shared by 25 cells; fault maps are drawn per cell.
fare::ExperimentPlan fig5_grid(std::uint64_t seed) {
    fare::ExperimentPlan plan{"fig5_grid", {}};
    append_reseeded(fare::find_builtin_plan("fig5"), {seed}, 2, plan);
    static const std::vector<std::uint64_t> coords = coordinate_hashes(plan);
    derive_hardware_seeds(plan, seed, coords);
    return plan;
}

/// The built-in wear_arrival (12 cells) and online_tolerance (8 listed, 6
/// unique) plans at 1 epoch over 6 dataset seeds derived from S, fault maps
/// and wear draws per cell: 108 executed cells in which training rewrites
/// the fault state at every arrival.
fare::ExperimentPlan wear_online(std::uint64_t seed) {
    const std::vector<std::uint64_t> seeds = derived_seeds(seed, 6);
    fare::ExperimentPlan plan{"wear_online", {}};
    append_reseeded(fare::wear_arrival_plan(), seeds, 1, plan);
    append_reseeded(fare::online_tolerance_plan(), seeds, 1, plan);
    static const std::vector<std::uint64_t> coords = coordinate_hashes(plan);
    derive_hardware_seeds(plan, seed, coords);
    return plan;
}

/// On-chip training without Algorithm 1's adjacency mapping: the six Fig. 5
/// GNN workloads x {fault-free, fault-unaware, weight clipping} plus the
/// SeqCls transformer x {fault-free, fault-unaware, FARe} x prune {0, 25%,
/// 50%}, at 3% faults, over 5 base seeds with per-cell derived seeds (every
/// cell builds its own dataset): 25 unique cells per base seed. The pruned
/// transformer cells are the slowest (~2x an unpruned one); 50% pruning
/// makes them 16% of the cells, so the p90 falls inside that group instead
/// of on its edge, where it jumped by 20% from seed to seed.
fare::ExperimentPlan train_loop(std::uint64_t seed) {
    const std::vector<std::uint64_t> seeds = derived_seeds(seed, 5);
    constexpr std::size_t kEpochs = 6;
    fare::ExperimentPlan plan = fare::SweepBuilder("train_loop")
                                    .workloads(fare::fig5_workloads())
                                    .density(0.03)
                                    .sa1_fraction(0.5)
                                    .schemes({fare::Scheme::kFaultFree,
                                              fare::Scheme::kFaultUnaware,
                                              fare::Scheme::kClippingOnly})
                                    .seeds(seeds)
                                    .seed_policy(fare::SeedPolicy::kDerived)
                                    .epochs(kEpochs)
                                    .build();
    const fare::ExperimentPlan transformer =
        fare::SweepBuilder("train_loop")
            .workload(fare::find_workload("transformer", "SeqCls"))
            .density(0.03)
            .sa1_fraction(0.5)
            .prune_fractions({0.0, 0.25, 0.5})
            .schemes({fare::Scheme::kFaultFree, fare::Scheme::kFaultUnaware,
                      fare::Scheme::kFARe})
            .seeds(seeds)
            .seed_policy(fare::SeedPolicy::kDerived)
            .epochs(kEpochs)
            .build();
    plan.cells.insert(plan.cells.end(), transformer.cells.begin(), transformer.cells.end());
    return plan;
}

}  // namespace

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> kWorkloads = {
        {"fig5_grid", 2, &fig5_grid},
        {"wear_online", 2, &wear_online},
        {"train_loop", 1, &train_loop},
    };
    return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return h;
}

std::vector<std::uint64_t> derived_seeds(std::uint64_t seed, std::size_t count) {
    std::vector<std::uint64_t> out;
    for (std::size_t k = 0; k < count; ++k) out.push_back(mix(seed + 0x9e3779b97f4a7c15ull * k));
    return out;
}

}  // namespace perfbench
