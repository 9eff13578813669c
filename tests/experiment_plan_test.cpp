// Unit tests for the declarative experiment API: FaultScenario lowering,
// SweepBuilder cross-product enumeration and ordering, per-cell seed
// derivation, and the canonical memoization key.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "fare/baselines.hpp"
#include "sim/plan.hpp"

namespace fare {
namespace {

TEST(FaultScenarioTest, BuildersComposeAndValidate) {
    FaultScenario s = FaultScenario::pre_deployment(0.05, 0.5);
    EXPECT_DOUBLE_EQ(s.density, 0.05);
    EXPECT_DOUBLE_EQ(s.sa1_fraction, 0.5);
    EXPECT_DOUBLE_EQ(s.post_sa1_fraction, 0.5);  // mirrors pre by default
    EXPECT_FALSE(s.fault_free());

    s.with_post_deployment(0.01, 0.9).with_read_noise(0.02);
    EXPECT_DOUBLE_EQ(s.post_total_density, 0.01);
    EXPECT_DOUBLE_EQ(s.post_sa1_fraction, 0.9);
    EXPECT_DOUBLE_EQ(s.read_noise_sigma, 0.02);

    EXPECT_TRUE(FaultScenario::none().fault_free());
    EXPECT_THROW(FaultScenario::pre_deployment(1.5, 0.1), InvalidArgument);
    EXPECT_THROW(FaultScenario::pre_deployment(0.05, -0.1), InvalidArgument);
    EXPECT_THROW(FaultScenario::none().with_read_noise(-1.0), InvalidArgument);
}

TEST(FaultScenarioTest, KeyNormalizesInertFields) {
    // No injected density: the SA1 ratio and clustering are unused.
    FaultScenario a = FaultScenario::pre_deployment(0.0, 0.1);
    FaultScenario b = FaultScenario::pre_deployment(0.0, 0.9);
    b.cluster_shape = 4.0;
    EXPECT_EQ(a.key(), b.key());

    // No wear stream: its ratio/schedule are unused.
    FaultScenario c = FaultScenario::pre_deployment(0.03, 0.5);
    FaultScenario d = c;
    d.post_sa1_fraction = 0.9;
    d.post_epochs = 7;
    EXPECT_EQ(c.key(), d.key());
    d.with_post_deployment(0.01, 0.9);  // live wear stream: fields count
    EXPECT_NE(c.key(), d.key());
}

TEST(FaultScenarioTest, WearAndArrivalKeyNormalization) {
    // Wear disabled: shape / severity / cadence are inert, and the key is
    // byte-identical to a pre-wear scenario's (legacy caches and derived
    // seeds stay stable).
    FaultScenario plain = FaultScenario::pre_deployment(0.03, 0.5);
    FaultScenario inert = plain;
    inert.wear.weibull_shape = 5.0;
    inert.wear.hot_spot_severity = 3.0;
    inert.arrival_period_batches = 4;  // no fault source: cadence unused
    EXPECT_EQ(plain.key(), inert.key());
    EXPECT_EQ(plain.key().find(";wear="), std::string::npos);

    // Enabled wear: every wear knob and the cadence become load-bearing.
    FaultScenario worn = plain;
    worn.with_wear(50000.0, 0.25).with_arrival_period(2);
    EXPECT_FALSE(worn.fault_free());
    EXPECT_NE(worn.key(), plain.key());
    FaultScenario other = worn;
    other.wear.hot_spot_fraction = 0.5;
    EXPECT_NE(other.key(), worn.key());
    other = worn;
    other.arrival_period_batches = 7;
    EXPECT_NE(other.key(), worn.key());
    other = worn;
    other.wear.writes_per_step = 64;
    EXPECT_NE(other.key(), worn.key());

    // The cadence also matters for a uniform stream without wear.
    FaultScenario uniform = plain;
    uniform.with_post_deployment(0.01).with_arrival_period(3);
    FaultScenario boundary_only = plain;
    boundary_only.with_post_deployment(0.01);
    EXPECT_NE(uniform.key(), boundary_only.key());

    // The two-knob overload keeps a previously configured hot-spot
    // fraction when the argument is omitted.
    FaultScenario retune = plain;
    retune.with_wear(50000.0, 0.25);
    retune.with_wear(80000.0);
    EXPECT_DOUBLE_EQ(retune.wear.endurance_mean_writes, 80000.0);
    EXPECT_DOUBLE_EQ(retune.wear.hot_spot_fraction, 0.25);

    EXPECT_THROW(FaultScenario::none().with_wear(-1.0), InvalidArgument);
    EXPECT_THROW(FaultScenario::none().with_wear(100.0, 1.5), InvalidArgument);
}

TEST(FaultScenarioTest, PhaseRestriction) {
    FaultScenario w = FaultScenario::pre_deployment(0.05, 0.0);
    w.on_weights_only();
    EXPECT_TRUE(w.faults_on_weights);
    EXPECT_FALSE(w.faults_on_adjacency);
    FaultScenario a = FaultScenario::pre_deployment(0.05, 0.0);
    a.on_adjacency_only();
    EXPECT_FALSE(a.faults_on_weights);
    EXPECT_TRUE(a.faults_on_adjacency);
    EXPECT_NE(w.key(), a.key());
}

TEST(FaultScenarioTest, LoweringMatchesFields) {
    FaultScenario s = FaultScenario::pre_deployment(0.03, 0.5);
    s.with_post_deployment(0.01);
    s.cluster_shape = 2.0;
    HardwareOverrides hw;
    hw.num_tiles = 2;
    hw.match_weights = {1.0, 1.0};
    const FaultyHardwareConfig cfg = to_hardware_config(s, hw, 7, 40);
    EXPECT_EQ(cfg.faults.key(), s.key());
    EXPECT_EQ(cfg.hardware.key(), hw.key());
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_EQ(cfg.train_epochs, 40u);

    // The chip FaultyHardware builds: the overrides' tile count, injected
    // with the scenario's pre-deployment faults under the config's seed.
    const FaultyHardware chip(Scheme::kFaultUnaware, cfg);
    Accelerator expected(AcceleratorConfig{.tile = {}, .num_tiles = 2});
    expected.inject_pre_deployment_faults(
        {.density = 0.03, .sa1_fraction = 0.5, .cluster_shape = 2.0, .seed = 7});
    ASSERT_EQ(chip.accelerator().num_crossbars(), expected.num_crossbars());
    for (std::size_t i = 0; i < expected.num_crossbars(); ++i) {
        const FaultMap& got = chip.accelerator().crossbar(i).fault_map();
        const FaultMap& want = expected.crossbar(i).fault_map();
        EXPECT_EQ(got.num_sa0(), want.num_sa0()) << "crossbar " << i;
        EXPECT_EQ(got.num_sa1(), want.num_sa1()) << "crossbar " << i;
    }
}

TEST(FaultScenarioTest, UnpinnedArrivalSpreadsOverTraining) {
    // post_epochs == 0 spreads the stream over train_epochs: the same chip
    // as pinning post_epochs to that length, whatever the pinned run's
    // training length.
    const auto arrived = [](std::size_t post_epochs, std::size_t train_epochs) {
        FaultScenario s = FaultScenario::pre_deployment(0.0, 0.5);
        s.with_post_deployment(0.04);
        s.post_epochs = post_epochs;
        FaultyHardware chip(Scheme::kFaultUnaware,
                            to_hardware_config(s, {}, 3, train_epochs));
        chip.on_epoch_end(0);
        std::size_t faults = 0;
        for (const FaultMap& map : chip.accelerator().true_fault_maps())
            faults += map.num_faults();
        return faults;
    };
    EXPECT_GT(arrived(0, 4), 0u);
    EXPECT_EQ(arrived(0, 4), arrived(4, 40));  // unpinned: spreads over training
    EXPECT_NE(arrived(0, 4), arrived(0, 40));
}

TEST(SweepBuilderTest, CrossProductEnumeration) {
    const ExperimentPlan plan = SweepBuilder("grid")
                                    .workloads(fig6_workloads())
                                    .axis(&FaultScenario::density, {0.01, 0.03})
                                    .axis(&FaultScenario::sa1_fraction, {0.1, 0.5})
                                    .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
                                    .seeds({1, 2, 3})
                                    .build();
    EXPECT_EQ(plan.size(), 3u * 2 * 2 * 2 * 3);

    // Deterministic order: workload-major, then density, sa1, scheme, seed.
    EXPECT_EQ(plan.cells[0].workload.label(), "PPI (GAT)");
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.density, 0.01);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.sa1_fraction, 0.1);
    EXPECT_EQ(plan.cells[0].scheme, Scheme::kFaultUnaware);
    EXPECT_EQ(plan.cells[0].seed, 1u);
    EXPECT_EQ(plan.cells[1].seed, 2u);                       // seed fastest
    EXPECT_EQ(plan.cells[3].scheme, Scheme::kFARe);          // then scheme
    EXPECT_DOUBLE_EQ(plan.cells[6].faults.sa1_fraction, 0.5);  // then sa1
    EXPECT_DOUBLE_EQ(plan.cells[12].faults.density, 0.03);     // then density
    EXPECT_EQ(plan.cells[24].workload.label(), "Reddit (GCN)");

    // The SA1 axis mirrors into the wear stream by default.
    EXPECT_DOUBLE_EQ(plan.cells[6].faults.post_sa1_fraction, 0.5);
}

TEST(SweepBuilderTest, PinnedPostSa1SurvivesTheAxis) {
    // An explicitly pinned wear-stream ratio must not be overwritten by the
    // SA1 axis — even when the pin equals the template's pre-deployment
    // ratio.
    FaultScenario pinned = FaultScenario::pre_deployment(0.05, 0.5);
    pinned.with_post_deployment(0.01, /*sa1=*/0.5);
    const ExperimentPlan plan = SweepBuilder("pinned")
                                    .workload(find_workload("PPI", GnnKind::kGCN))
                                    .scenario(pinned)
                                    .axis(&FaultScenario::sa1_fraction, {0.1, 0.5})
                                    .scheme(Scheme::kFARe)
                                    .build();
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.sa1_fraction, 0.1);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.post_sa1_fraction, 0.5);  // pinned
    EXPECT_DOUBLE_EQ(plan.cells[1].faults.post_sa1_fraction, 0.5);
}

TEST(SweepBuilderTest, WearAxes) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    WearSpec wear;
    wear.weibull_shape = 3.0;
    wear.writes_per_step = 500;
    FaultScenario scenario = FaultScenario::pre_deployment(0.01, 0.5);
    scenario.with_wear(wear);
    const ExperimentPlan plan =
        SweepBuilder("wear_grid")
            .workload(w)
            .scenario(scenario)
            .axis(&WearSpec::endurance_mean_writes, {1e4, 2e4})
            .axis(&WearSpec::hot_spot_fraction, {0.0, 0.25})
            .axis(&FaultScenario::arrival_period_batches, {0, 2})
            .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
            .build();
    EXPECT_EQ(plan.size(), 2u * 2 * 2 * 2);

    // Order: endurance-major, then hot-spot, then arrival, then scheme.
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.wear.endurance_mean_writes, 1e4);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.wear.hot_spot_fraction, 0.0);
    EXPECT_EQ(plan.cells[0].faults.arrival_period_batches, 0u);
    EXPECT_EQ(plan.cells[1].scheme, Scheme::kFARe);
    EXPECT_EQ(plan.cells[2].faults.arrival_period_batches, 2u);
    EXPECT_DOUBLE_EQ(plan.cells[4].faults.wear.hot_spot_fraction, 0.25);
    EXPECT_DOUBLE_EQ(plan.cells[8].faults.wear.endurance_mean_writes, 2e4);

    // Template fields ride along on every cell.
    EXPECT_DOUBLE_EQ(plan.cells[5].faults.wear.weibull_shape, 3.0);
    EXPECT_EQ(plan.cells[5].faults.wear.writes_per_step, 500u);

    // Distinct coordinates produce distinct keys (different cached cells).
    EXPECT_NE(plan.cells[0].key(), plan.cells[2].key());  // arrival differs
    EXPECT_NE(plan.cells[0].key(), plan.cells[4].key());  // hot-spot differs
    EXPECT_NE(plan.cells[0].key(), plan.cells[8].key());  // endurance differs

    // Unset wear axes keep the template's values.
    const ExperimentPlan defaults =
        SweepBuilder("wear_defaults").workload(w).scenario(scenario).build();
    ASSERT_EQ(defaults.size(), 1u);
    EXPECT_DOUBLE_EQ(
        defaults.cells[0].faults.wear.endurance_mean_writes,
        scenario.wear.endurance_mean_writes);

    // Axis values are validated before any cell is built.
    EXPECT_THROW(SweepBuilder("bad")
                     .workload(w)
                     .axis(&WearSpec::endurance_mean_writes, {-1.0})
                     .build(),
                 InvalidArgument);
    EXPECT_THROW(SweepBuilder("bad")
                     .workload(w)
                     .axis(&WearSpec::hot_spot_fraction, {1.5})
                     .build(),
                 InvalidArgument);
}

TEST(SweepBuilderTest, NoiseAndClipAxes) {
    const WorkloadSpec w = find_workload("Reddit", GnnKind::kGCN);
    const ExperimentPlan plan =
        SweepBuilder("robustness")
            .workload(w)
            .scenario(FaultScenario::pre_deployment(0.03, 0.5))
            .axis(&FaultScenario::read_noise_sigma, {0.0, 0.02, 0.05})
            .axis(&HardwareOverrides::clip_threshold, {0.5f, 1.0f})
            .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
            .build();
    EXPECT_EQ(plan.size(), 3u * 2 * 2);

    // Order: noise-major, then clip, then scheme — and the unset density /
    // SA1 axes collapse to the scenario template.
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.read_noise_sigma, 0.0);
    EXPECT_FLOAT_EQ(plan.cells[0].hardware.clip_threshold, 0.5f);
    EXPECT_EQ(plan.cells[0].scheme, Scheme::kFaultUnaware);
    EXPECT_EQ(plan.cells[1].scheme, Scheme::kFARe);
    EXPECT_FLOAT_EQ(plan.cells[2].hardware.clip_threshold, 1.0f);
    EXPECT_DOUBLE_EQ(plan.cells[4].faults.read_noise_sigma, 0.02);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.density, 0.03);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.sa1_fraction, 0.5);

    // The axes are behaviour-relevant: distinct keys per coordinate (except
    // fault-free cells, which normalise the chip away entirely).
    EXPECT_NE(plan.cells[1].key(), plan.cells[3].key());  // clip differs
    EXPECT_NE(plan.cells[1].key(), plan.cells[5].key());  // noise differs

    // Unset axes keep the template's values.
    FaultScenario noisy = FaultScenario::pre_deployment(0.03, 0.5);
    noisy.with_read_noise(0.07);
    HardwareOverrides hw;
    hw.clip_threshold = 0.8f;
    const ExperimentPlan defaults = SweepBuilder("defaults")
                                        .workload(w)
                                        .scenario(noisy)
                                        .hardware(hw)
                                        .scheme(Scheme::kFARe)
                                        .build();
    ASSERT_EQ(defaults.size(), 1u);
    EXPECT_DOUBLE_EQ(defaults.cells[0].faults.read_noise_sigma, 0.07);
    EXPECT_FLOAT_EQ(defaults.cells[0].hardware.clip_threshold, 0.8f);

    EXPECT_THROW(SweepBuilder("bad")
                     .workload(w)
                     .axis(&FaultScenario::read_noise_sigma, {-0.1})
                     .build(),
                 InvalidArgument);
    EXPECT_THROW(SweepBuilder("bad")
                     .workload(w)
                     .axis(&HardwareOverrides::clip_threshold, {0.0f})
                     .build(),
                 InvalidArgument);
}

TEST(SweepBuilderTest, ClusterAndPostDeploymentAxes) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    const ExperimentPlan plan =
        SweepBuilder("wear_shapes")
            .workload(w)
            .density(0.03)
            .sa1_fraction(0.5)
            .axis(&FaultScenario::cluster_shape, {0.0, 1.5})
            .axis(&FaultScenario::post_total_density, {0.0, 0.01})
            .axis(&FaultScenario::post_epochs, {0, 10})
            .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
            .build();
    EXPECT_EQ(plan.size(), 2u * 2 * 2 * 2);

    // Order: cluster-major, then post density, then span, then scheme.
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.cluster_shape, 0.0);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.post_total_density, 0.0);
    EXPECT_EQ(plan.cells[0].faults.post_epochs, 0u);
    EXPECT_EQ(plan.cells[1].scheme, Scheme::kFARe);
    EXPECT_EQ(plan.cells[2].faults.post_epochs, 10u);
    EXPECT_DOUBLE_EQ(plan.cells[4].faults.post_total_density, 0.01);
    EXPECT_DOUBLE_EQ(plan.cells[8].faults.cluster_shape, 1.5);

    // Behaviour-relevant coordinates get distinct keys; the epoch span of a
    // disabled wear stream (post density 0) is inert and normalises away.
    EXPECT_NE(plan.cells[0].key(), plan.cells[8].key());   // cluster differs
    EXPECT_NE(plan.cells[4].key(), plan.cells[6].key());   // span differs
    EXPECT_NE(plan.cells[0].key(), plan.cells[4].key());   // post differs
    EXPECT_EQ(plan.cells[0].key(), plan.cells[2].key());   // inert span

    // The SA1 axis still mirrors into the wear stream alongside the new
    // axes (post_sa1_follows_pre default).
    const ExperimentPlan mirrored = SweepBuilder("mirror")
                                        .workload(w)
                                        .axis(&FaultScenario::sa1_fraction, {0.1, 0.9})
                                        .axis(&FaultScenario::post_total_density, {0.01})
                                        .scheme(Scheme::kFARe)
                                        .build();
    ASSERT_EQ(mirrored.size(), 2u);
    EXPECT_DOUBLE_EQ(mirrored.cells[1].faults.post_sa1_fraction, 0.9);

    // Unset axes keep the template's values (fig6's old scenario-template
    // spelling and the new axis spelling are cell-identical).
    FaultScenario wear;
    wear.with_post_deployment(0.01);
    const ExperimentPlan via_template =
        SweepBuilder("fig6ish").workload(w).scenario(wear).scheme(
            Scheme::kFARe).build();
    const ExperimentPlan via_axis = SweepBuilder("fig6ish")
                                        .workload(w)
                                        .axis(&FaultScenario::post_total_density, {0.01})
                                        .axis(&FaultScenario::post_epochs, {0})
                                        .scheme(Scheme::kFARe)
                                        .build();
    ASSERT_EQ(via_template.size(), via_axis.size());
    EXPECT_EQ(via_template.cells[0].key(), via_axis.cells[0].key());

    EXPECT_THROW(SweepBuilder("bad")
                     .workload(w)
                     .axis(&FaultScenario::post_total_density, {1.5})
                     .build(),
                 InvalidArgument);
}

TEST(SweepBuilderTest, RejectsOutOfRangeAxisValues) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    EXPECT_THROW(SweepBuilder("typo")
                     .workload(w)
                     .axis(&FaultScenario::density, {0.03, 3.0})
                     .build(),
                 InvalidArgument);
    EXPECT_THROW(SweepBuilder("typo")
                     .workload(w)
                     .axis(&FaultScenario::sa1_fraction, {-0.1})
                     .build(),
                 InvalidArgument);
}

TEST(SweepBuilderTest, AxesEnumerateInRecordOrder) {
    // Axes enumerate in visit_fields order, not call order: the clip
    // threshold (hardware block) spins faster than the endurance mean
    // (faults block). Setting an axis again replaces it, and a member
    // outside the table is rejected.
    const ExperimentPlan plan =
        SweepBuilder("order")
            .workload(find_workload("PPI", GnnKind::kGCN))
            .axis(&HardwareOverrides::clip_threshold, {0.5f, 1.0f})
            .axis(&WearSpec::endurance_mean_writes, {1e4})
            .axis(&WearSpec::endurance_mean_writes, {1e4, 2e4})
            .scheme(Scheme::kFARe)
            .build();
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_FLOAT_EQ(plan.cells[1].hardware.clip_threshold, 1.0f);
    EXPECT_DOUBLE_EQ(plan.cells[1].faults.wear.endurance_mean_writes, 1e4);
    EXPECT_DOUBLE_EQ(plan.cells[2].faults.wear.endurance_mean_writes, 2e4);
    EXPECT_FLOAT_EQ(plan.cells[2].hardware.clip_threshold, 0.5f);
    EXPECT_THROW(SweepBuilder("bad").axis(&CellSpec::seed, {1}), InvalidArgument);
}

TEST(SweepBuilderTest, DefaultsAndTemplate) {
    FaultScenario wear;
    wear.with_post_deployment(0.01);
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    const ExperimentPlan plan =
        SweepBuilder("tiny").workload(w).scenario(wear).build();
    ASSERT_EQ(plan.size(), 1u);  // unset axes collapse to the template value
    EXPECT_EQ(plan.cells[0].scheme, Scheme::kFaultFree);
    EXPECT_DOUBLE_EQ(plan.cells[0].faults.post_total_density, 0.01);
    EXPECT_THROW(SweepBuilder("empty").build(), InvalidArgument);
}

TEST(SweepBuilderTest, DerivedSeedsAreStableAndDistinct) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    const auto build = [&] {
        return SweepBuilder("seeds")
            .workload(w)
            .axis(&FaultScenario::density, {0.01, 0.03})
            .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
            .seed(99)
            .seed_policy(SeedPolicy::kDerived)
            .build();
    };
    const ExperimentPlan a = build();
    const ExperimentPlan b = build();
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.cells[i].seed, b.cells[i].seed);  // reproducible
        seeds.insert(a.cells[i].seed);
    }
    EXPECT_EQ(seeds.size(), a.size());  // decorrelated per cell
}

TEST(CellSpecTest, KeyNormalizesFaultFree) {
    CellSpec a;
    a.workload = find_workload("PPI", GnnKind::kGCN);
    a.scheme = Scheme::kFaultFree;
    a.faults = FaultScenario::pre_deployment(0.01, 0.1);
    CellSpec b = a;
    b.faults = FaultScenario::pre_deployment(0.05, 0.5);
    b.hardware.match_weights = {1.0, 1.0};
    // Ideal hardware ignores the scenario/chip: one cached reference.
    EXPECT_EQ(a.key(), b.key());

    b.scheme = Scheme::kFARe;
    EXPECT_NE(a.key(), b.key());
    CellSpec c = b;
    c.faults.density = 0.03;
    EXPECT_NE(b.key(), c.key());  // faulty cells keep their coordinates
    c = b;
    c.seed = 2;
    EXPECT_NE(b.key(), c.key());  // seed always matters (dataset instance)
    c = b;
    c.record_curve = true;
    EXPECT_NE(b.key(), c.key());  // result payload differs
    c = b;
    c.epochs = 7;
    EXPECT_NE(b.key(), c.key());
    c = b;
    c.mode = CellMode::kDeploy;
    EXPECT_NE(b.key(), c.key());
    c = b;
    c.hardware_seed = 9;  // distinct fault map, same dataset
    EXPECT_NE(b.key(), c.key());
    c = b;
    c.hardware_seed = b.seed;  // explicit but equal to the default resolution
    EXPECT_EQ(b.key(), c.key());
}

TEST(CellSpecTest, TrainConfigAppliesOverrides) {
    CellSpec spec;
    spec.workload = find_workload("Reddit", GnnKind::kGCN);
    spec.seed = 5;
    spec.record_curve = true;
    spec.epochs = 3;
    const TrainConfig tc = spec.train_config();
    EXPECT_EQ(tc.seed, 5u);
    EXPECT_TRUE(tc.record_curve);
    EXPECT_EQ(tc.epochs, 3u);
    EXPECT_EQ(tc.kind, GnnKind::kGCN);
}

TEST(CellSpecTest, LabelReadable) {
    CellSpec spec;
    spec.workload = find_workload("Reddit", GnnKind::kGCN);
    spec.scheme = Scheme::kFARe;
    spec.faults = FaultScenario::pre_deployment(0.03, 0.5);
    EXPECT_EQ(spec.label(), "Reddit (GCN) / FARe / d=3% sa1=50% / seed 1");
}

TEST(SweepBuilderTest, PartitionerAxes) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    const ExperimentPlan plan =
        SweepBuilder("parts")
            .workload(w)
            .density(0.03)
            .axis(&CellSpec::partitioner, {"fennel", "refennel"})
            .axis(&CellSpec::partition_count, {8, 40})
            .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
            .seeds({1, 2})
            .build();
    EXPECT_EQ(plan.size(), 2u * 2 * 2 * 2);

    // Partitioner is outer to partition count, which is outer to scheme and
    // seed (the documented enumeration order).
    EXPECT_EQ(plan.cells[0].partitioner, "fennel");
    EXPECT_EQ(plan.cells[0].partition_count, 8);
    EXPECT_EQ(plan.cells[0].seed, 1u);
    EXPECT_EQ(plan.cells[1].seed, 2u);                    // seed fastest
    EXPECT_EQ(plan.cells[2].scheme, Scheme::kFARe);       // then scheme
    EXPECT_EQ(plan.cells[4].partition_count, 40);         // then count
    EXPECT_EQ(plan.cells[8].partitioner, "refennel");     // then partitioner

    // The axes feed the trainer via train_config().
    const TrainConfig tc = plan.cells[0].train_config();
    EXPECT_EQ(tc.partitioner, "fennel");
    EXPECT_EQ(tc.num_partitions, 8);
    EXPECT_LE(tc.partitions_per_batch, 8);
}

TEST(SweepBuilderTest, UnknownPartitionerRejectedAtBuildTime) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    EXPECT_THROW(SweepBuilder("typo")
                     .workload(w)
                     .axis(&CellSpec::partitioner, {"fennel", "metis"})
                     .build(),
                 InvalidArgument);
    EXPECT_THROW(SweepBuilder("typo")
                     .workload(w)
                     .axis(&CellSpec::partition_count, {-4})
                     .build(),
                 InvalidArgument);
}

TEST(CellSpecTest, PartitionDefaultsAreKeyInert) {
    // A spec that never heard of the partition axes and one holding their
    // defaults must share a memo key — legacy cache entries stay valid.
    CellSpec legacy;
    legacy.workload = find_workload("PPI", GnnKind::kGCN);
    legacy.scheme = Scheme::kFARe;
    legacy.faults = FaultScenario::pre_deployment(0.03, 0.5);
    CellSpec with_defaults = legacy;
    with_defaults.partitioner = "";
    with_defaults.partition_count = 0;
    with_defaults.hardware.partition_aware_mapping = false;
    EXPECT_EQ(with_defaults.key(), legacy.key());
    EXPECT_EQ(with_defaults.key().find("part="), std::string::npos);
    EXPECT_EQ(with_defaults.key().find("pam="), std::string::npos);

    // Non-defaults must key-separate — same cache, different cells.
    CellSpec swept = legacy;
    swept.partitioner = "fennel";
    swept.partition_count = 40;
    EXPECT_NE(swept.key(), legacy.key());
    EXPECT_NE(swept.key().find("part=fennel/40"), std::string::npos);
    CellSpec pam = legacy;
    pam.hardware.partition_aware_mapping = true;
    EXPECT_NE(pam.key(), legacy.key());
    EXPECT_NE(pam.key().find("pam=1"), std::string::npos);
}

TEST(CellSpecTest, PartitionCountScalesBatchGrouping) {
    // Overriding the partition count preserves the workload's per-batch
    // share of the graph: PPI's default 40 partitions / 4 per batch becomes
    // 1 per batch at 8 partitions and 8 per batch at 80.
    CellSpec spec;
    spec.workload = find_workload("PPI", GnnKind::kGCN);
    spec.partition_count = 8;
    EXPECT_EQ(spec.train_config().partitions_per_batch, 1);
    spec.partition_count = 80;
    EXPECT_EQ(spec.train_config().partitions_per_batch, 8);
    spec.partition_count = 40;
    EXPECT_EQ(spec.train_config().partitions_per_batch, 4);
}

}  // namespace
}  // namespace fare
