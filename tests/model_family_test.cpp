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
    EXPECT_EQ(families[0]->name(), "gnn");
    EXPECT_EQ(families[1]->name(), "transformer");
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

TEST(ModelFamilyTest, GnnWorkloadsAreUnchangedByTheRefactor) {
    // The gnn family's registry view IS fig5_workloads(); labels, kinds and
    // train configs route through the same code as before the seam.
    const ModelFamily& gnn = find_model_family("gnn");
    const auto& workloads = gnn.workloads();
    ASSERT_EQ(workloads.size(), fig5_workloads().size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        EXPECT_EQ(workloads[i].label(), fig5_workloads()[i].label());
        EXPECT_EQ(workloads[i].family, "gnn");
    }
    const WorkloadSpec ppi = find_workload("PPI", GnnKind::kGCN);
    const TrainConfig via_family = gnn.train_config(ppi, 1);
    const TrainConfig via_workload = ppi.train_config(1);
    EXPECT_EQ(via_family.num_partitions, via_workload.num_partitions);
    EXPECT_EQ(via_family.epochs, via_workload.epochs);
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
