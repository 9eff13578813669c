#include "sim/builtin_plans.hpp"

#include "common/error.hpp"
#include "sim/registry.hpp"

namespace fare {

ExperimentPlan wear_arrival_plan() {
    // Live wear study: training on PPI charges each in-use crossbar
    // writes_per_step = 1000 array writes per optimizer step (10 steps per
    // epoch at the registry's batch configuration), so over the pinned
    // 3-epoch budget a crossbar accumulates ~30k writes plus BIST traffic.
    // The endurance axis brackets that horizon (Weibull shape 2): a 40k-mean
    // device loses roughly a third of its in-use cells mid-run, 80k around a
    // tenth, 160k a few percent. Hot spots concentrate the same wear budget
    // into a quarter of the crossbars at 8x severity. Arrivals land every 2
    // training steps (mid-epoch), not just at epoch ends.
    WearSpec wear;
    wear.weibull_shape = 2.0;
    wear.hot_spot_severity = 8.0;
    wear.writes_per_step = 1000;
    FaultScenario scenario = FaultScenario::pre_deployment(0.01, 0.5);
    scenario.with_wear(wear).with_arrival_period(2);
    return SweepBuilder("wear_arrival")
        .workload(find_workload("PPI", GnnKind::kGCN))
        .scenario(scenario)
        .axis(&WearSpec::endurance_mean_writes, {40e3, 80e3, 160e3})
        .axis(&WearSpec::hot_spot_fraction, {0.0, 0.25})
        .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
        .epochs(3)
        .build();
}

ExperimentPlan online_tolerance_plan() {
    // Online tolerance study: the wear_arrival damage model (endurance 40k
    // mean so wear bites mid-run, hot spots concentrating it 8x into a
    // quarter of the crossbars) plus a soft-error stream — re-formable
    // stuck-ats arriving at every mid-epoch checkpoint. The offline schemes
    // see all of it as permanent damage they can only remap around or clip;
    // the online schemes march a rotating window every detect_period steps,
    // re-form the soft faults, and substitute spare columns under the hard
    // ones — paying march/readback time and re-programming wear for the
    // privilege. The detect-period axis {2, 8} spans eager vs lazy
    // detection; the non-online schemes' cell keys normalise the online
    // policy away, so they run once per scheme, not once per axis value.
    WearSpec wear;
    wear.weibull_shape = 2.0;
    wear.hot_spot_severity = 8.0;
    wear.writes_per_step = 1000;
    FaultScenario scenario = FaultScenario::pre_deployment(0.01, 0.5);
    scenario.with_wear(wear).with_arrival_period(2).with_soft_errors(0.004);
    HardwareOverrides hw;
    hw.online.detect_period_batches = 2;  // overwritten by the axis
    hw.online.march_window = 8;
    hw.online.spare_columns = 4;
    hw.online.readback_tolerance = 0.05;
    return SweepBuilder("online_tolerance")
        .workload(find_workload("PPI", GnnKind::kGCN))
        .scenario(scenario)
        .hardware(hw)
        .axis(&WearSpec::endurance_mean_writes, {40e3})
        .axis(&WearSpec::hot_spot_fraction, {0.25})
        .axis(&OnlinePolicySpec::detect_period_batches, {2, 8})
        .schemes({Scheme::kFaultUnaware, Scheme::kFARe, Scheme::kOnlineFARe,
                  Scheme::kOnlineNaive})
        .epochs(3)
        .build();
}

const std::vector<NamedPlan>& builtin_plans() {
    static const std::vector<NamedPlan> kPlans = {
        {"smoke",
         "PPI (GCN), 2 densities x {fault-free, fault-unaware, FARe}, "
         "2 epochs — seconds; the CI shard-smoke plan",
         [] {
             return SweepBuilder("smoke")
                 .workload(find_workload("PPI", GnnKind::kGCN))
                 .axis(&FaultScenario::density, {0.01, 0.05})
                 .sa1_fraction(0.5)
                 .schemes({Scheme::kFaultFree, Scheme::kFaultUnaware,
                           Scheme::kFARe})
                 .epochs(2)
                 .build();
         }},
        {"seed_stats",
         "PPI (GCN) @ 3% faults, {fault-unaware, FARe} x seeds "
         "{1,2,3} — pair with --stats for mean/sigma error bars",
         [] {
             return SweepBuilder("seed_stats")
                 .workload(find_workload("PPI", GnnKind::kGCN))
                 .density(0.03)
                 .sa1_fraction(0.5)
                 .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
                 .seeds({1, 2, 3})
                 .epochs(2)
                 .build();
         }},
        {"read_noise",
         "Reddit (GCN), 3% SAFs, read-noise sigma axis "
         "{0, 2%, 5%, 10%} x {fault-unaware, FARe}",
         [] {
             return SweepBuilder("read_noise")
                 .workload(find_workload("Reddit", GnnKind::kGCN))
                 .scenario(FaultScenario::pre_deployment(0.03, 0.5))
                 .axis(&FaultScenario::read_noise_sigma, {0.0, 0.02, 0.05, 0.1})
                 .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
                 .epochs(40)
                 .build();
         }},
        {"wear_arrival",
         "PPI (GCN), 1% SAFs + live wear: endurance mean {40k,80k,160k} x "
         "hot-spot fraction {0,25%} x {fault-unaware, FARe}, arrivals every "
         "2 steps — the bench_wear_arrival sweep",
         [] { return wear_arrival_plan(); }},
        {"online_tolerance",
         "PPI (GCN), live wear + soft-error arrivals, detect period {2,8} x "
         "{fault-unaware, FARe, online FARe, online naive} — the "
         "bench_online_tolerance frontier",
         [] { return online_tolerance_plan(); }},
        {"partition_sweep",
         "PPI (GCN) @ 3% faults on a 4-tile chip with partition-aware "
         "mapping, partitioner {multilevel, fennel, weighted-ldg} x "
         "partition count {8, 40} x {fault-unaware, FARe} — partition "
         "quality vs accuracy vs off-tile traffic",
         [] {
             // A multi-tile chip with a pool spanning the tiles: the only
             // topology where the cut can show up as inter-tile traffic and
             // partition-aware mapping has crossbars to steer towards.
             HardwareOverrides hw;
             hw.num_tiles = 4;
             hw.max_adjacency_pool = 256;
             hw.partition_aware_mapping = true;
             return SweepBuilder("partition_sweep")
                 .workload(find_workload("PPI", GnnKind::kGCN))
                 .scenario(FaultScenario::pre_deployment(0.03, 0.5))
                 .hardware(hw)
                 .axis(&CellSpec::partitioner,
                       {"multilevel", "fennel", "weighted-ldg"})
                 .axis(&CellSpec::partition_count, {8, 40})
                 .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
                 .epochs(2)
                 .build();
         }},
        {"transformer_sweep",
         "SeqCls (Transformer), 2 densities x {fault-free, fault-unaware, "
         "FARe} x prune fraction {0, 25%} — the transformer family on the "
         "same crossbar fabric, with significance pruning relaxing the "
         "fault-matching objective",
         [] {
             return SweepBuilder("transformer_sweep")
                 .workload(find_workload("transformer", "SeqCls"))
                 .axis(&FaultScenario::density, {0.03, 0.08})
                 .sa1_fraction(0.5)
                 .prune_fractions({0.0, 0.25})
                 .schemes({Scheme::kFaultFree, Scheme::kFaultUnaware,
                           Scheme::kFARe})
                 .epochs(2)
                 .build();
         }},
        {"fig5",
         "the full Fig. 5 accuracy grid (180 cells) — the sweep worth "
         "sharding across machines",
         [] {
             return SweepBuilder("fig5")
                 .workloads(fig5_workloads())
                 .axis(&FaultScenario::density, {0.01, 0.03, 0.05})
                 .axis(&FaultScenario::sa1_fraction, {0.1, 0.5})
                 .schemes(figure_schemes())
                 // Pinned at the registry default: shard processes must
                 // agree on cell keys without sharing FARE_EPOCHS (use
                 // --epochs for a quick pass).
                 .epochs(40)
                 .build();
         }},
    };
    return kPlans;
}

ExperimentPlan find_builtin_plan(const std::string& name) {
    for (const NamedPlan& plan : builtin_plans())
        if (name == plan.name) return plan.build();
    std::string known;
    for (const NamedPlan& plan : builtin_plans())
        known += std::string(known.empty() ? "" : ", ") + plan.name;
    throw InvalidArgument("unknown plan '" + name + "' (known: " + known + ")");
}

}  // namespace fare
