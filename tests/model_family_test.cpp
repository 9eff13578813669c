// ModelFamily registry: lookup + structured errors naming valid registered
// identifiers, the family/prune cell-key conventions (key-inert at their
// defaults so legacy memo keys and disk caches stay byte-stable), and the
// SweepBuilder model-family / prune axes.
#include <gtest/gtest.h>

#include <algorithm>

#include "nn/model_family.hpp"
#include "sim/cell.hpp"
#include "sim/plan.hpp"
#include "sim/registry.hpp"

namespace fare {
namespace {

TEST(ModelFamilyTest, RegistryListsBothFamilies) {
    const auto& families = registered_model_families();
    ASSERT_EQ(families.size(), 2u);
    EXPECT_STREQ(families[0]->name, "gnn");
    EXPECT_STREQ(families[1]->name, "transformer");
    EXPECT_EQ(&find_model_family("gnn"), families[0]);
    EXPECT_EQ(&find_model_family("transformer"), families[1]);
}

TEST(ModelFamilyTest, UnknownFamilyErrorNamesRegisteredOnes) {
    const auto miss = try_find_model_family("cnn");
    ASSERT_FALSE(miss.ok());
    EXPECT_NE(miss.error().find("cnn"), std::string::npos);
    EXPECT_NE(miss.error().find("gnn"), std::string::npos);
    EXPECT_NE(miss.error().find("transformer"), std::string::npos);
    EXPECT_THROW(find_model_family("cnn"), InvalidArgument);
}

TEST(ModelFamilyTest, FamilyScopedWorkloadLookup) {
    const WorkloadSpec w = find_workload("transformer", "SeqCls");
    EXPECT_EQ(w.family, "transformer");
    EXPECT_EQ(w.dataset, "SeqCls");
    EXPECT_EQ(w.model_name(), "Transformer");
    EXPECT_EQ(w.label(), "SeqCls (Transformer)");

    // A miss names the registered combinations (with the transformer row).
    const auto miss = try_find_workload("transformer", "PPI");
    ASSERT_FALSE(miss.ok());
    EXPECT_NE(miss.error().find("SeqCls"), std::string::npos);
    // An unknown family surfaces the family registry, not a workload list.
    const auto bad_family = try_find_workload("cnn", "SeqCls");
    ASSERT_FALSE(bad_family.ok());
    EXPECT_NE(bad_family.error().find("gnn"), std::string::npos);
}

TEST(ModelFamilyTest, EveryRowAnswersForItsOwnWorkloads) {
    // Each row's workloads carry its name, and a WorkloadSpec's train config
    // and paper-scale timing are that row's answers, field by field.
    for (const ModelFamily* family : registered_model_families()) {
        const std::vector<WorkloadSpec> workloads = family->workloads();
        EXPECT_FALSE(workloads.empty()) << family->name;
        for (const WorkloadSpec& w : workloads) {
            SCOPED_TRACE(w.label());
            EXPECT_EQ(w.family, family->name);

            const TrainConfig row = family->train_config(w, 7);
            const TrainConfig spec = w.train_config(7);
            EXPECT_EQ(row.kind, spec.kind);
            EXPECT_EQ(row.hidden, spec.hidden);
            EXPECT_EQ(row.num_layers, spec.num_layers);
            EXPECT_EQ(row.lr, spec.lr);
            EXPECT_EQ(row.epochs, spec.epochs);
            EXPECT_EQ(row.num_partitions, spec.num_partitions);
            EXPECT_EQ(row.partitions_per_batch, spec.partitions_per_batch);
            EXPECT_EQ(row.partitioner, spec.partitioner);
            EXPECT_EQ(row.seed, spec.seed);
            EXPECT_EQ(row.record_curve, spec.record_curve);

            const WorkloadTiming row_timing = family->paper_scale_timing(w);
            const WorkloadTiming spec_timing = w.paper_scale_timing();
            EXPECT_EQ(row_timing.batches_per_epoch, spec_timing.batches_per_epoch);
            EXPECT_EQ(row_timing.epochs, spec_timing.epochs);
            EXPECT_EQ(row_timing.avg_batch_nodes, spec_timing.avg_batch_nodes);
            EXPECT_EQ(row_timing.features, spec_timing.features);
            EXPECT_EQ(row_timing.hidden, spec_timing.hidden);
            EXPECT_EQ(row_timing.layers, spec_timing.layers);
            EXPECT_EQ(row_timing.weight_rows_total, spec_timing.weight_rows_total);
        }
    }
    // The gnn row's workloads are fig5_workloads(), in order.
    const std::vector<WorkloadSpec> gnn = find_model_family("gnn").workloads();
    ASSERT_EQ(gnn.size(), fig5_workloads().size());
    for (std::size_t i = 0; i < gnn.size(); ++i)
        EXPECT_EQ(gnn[i].label(), fig5_workloads()[i].label());
}

TEST(ModelFamilyTest, NonGnnWorkloadHasNoGraphDataset) {
    const WorkloadSpec w = find_workload("transformer", "SeqCls");
    EXPECT_THROW(w.make_dataset(1), InvalidArgument);
}

TEST(ModelFamilyTest, FamilyTagIsKeyInertAtTheGnnDefault) {
    CellSpec gnn_spec;
    gnn_spec.workload = find_workload("PPI", GnnKind::kGCN);
    gnn_spec.scheme = Scheme::kFARe;
    gnn_spec.faults = FaultScenario::pre_deployment(0.03, 0.5);
    // Legacy keys must not grow a model tag: byte-stable memo keys keep
    // pre-refactor disk caches and derived seeds valid.
    EXPECT_EQ(gnn_spec.key().find("model="), std::string::npos);

    CellSpec tf_spec = gnn_spec;
    tf_spec.workload = find_workload("transformer", "SeqCls");
    EXPECT_NE(tf_spec.key().find("|model=transformer"), std::string::npos);
    EXPECT_NE(tf_spec.key(), gnn_spec.key());
}

TEST(ModelFamilyTest, PruneFractionIsKeyInertAtZero) {
    CellSpec spec;
    spec.workload = find_workload("PPI", GnnKind::kGCN);
    spec.scheme = Scheme::kFARe;
    spec.faults = FaultScenario::pre_deployment(0.03, 0.5);
    EXPECT_EQ(spec.key().find("prune="), std::string::npos);
    spec.hardware.prune_fraction = 0.25;
    EXPECT_NE(spec.key().find(";prune=0.25"), std::string::npos);
}

TEST(ModelFamilyTest, SweepBuilderModelFamilyAxis) {
    const ExperimentPlan plan =
        SweepBuilder("families")
            .model_families({"gnn", "transformer"})
            .density(0.03)
            .sa1_fraction(0.5)
            .schemes({Scheme::kFARe})
            .epochs(2)
            .build();
    // Every registered workload of both families, one cell each.
    const std::size_t expected =
        fig5_workloads().size() +
        find_model_family("transformer").workloads().size();
    ASSERT_EQ(plan.cells.size(), expected);
    const bool has_transformer = std::any_of(
        plan.cells.begin(), plan.cells.end(), [](const CellSpec& c) {
            return c.workload.family == "transformer";
        });
    EXPECT_TRUE(has_transformer);
    EXPECT_THROW(SweepBuilder("bad").model_family("cnn"), InvalidArgument);
}

TEST(ModelFamilyTest, SweepBuilderPruneAxis) {
    const ExperimentPlan plan =
        SweepBuilder("prune")
            .workload(find_workload("PPI", GnnKind::kGCN))
            .density(0.03)
            .sa1_fraction(0.5)
            .prune_fractions({0.0, 0.25})
            .schemes({Scheme::kFARe})
            .epochs(2)
            .build();
    ASSERT_EQ(plan.cells.size(), 2u);
    EXPECT_DOUBLE_EQ(plan.cells[0].hardware.prune_fraction, 0.0);
    EXPECT_DOUBLE_EQ(plan.cells[1].hardware.prune_fraction, 0.25);
    EXPECT_NE(plan.cells[0].key(), plan.cells[1].key());
    EXPECT_THROW(SweepBuilder("bad")
                     .workload(find_workload("PPI", GnnKind::kGCN))
                     .axis(&HardwareOverrides::prune_fraction, {1.0})
                     .schemes({Scheme::kFARe})
                     .build(),
                 InvalidArgument);
}

TEST(ModelFamilyTest, UsageStringsNameEveryFamilyAndWorkload) {
    const std::string workloads = workload_usage();
    EXPECT_NE(workloads.find("PPI GCN"), std::string::npos);
    EXPECT_NE(workloads.find("SeqCls Transformer"), std::string::npos);
    EXPECT_NE(workloads.find("[transformer]"), std::string::npos);
}

}  // namespace
}  // namespace fare
