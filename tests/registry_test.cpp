#include "sim/registry.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace fare {
namespace {

TEST(RegistryTest, Fig5HasSixWorkloadsInPaperOrder) {
    const auto& w = fig5_workloads();
    ASSERT_EQ(w.size(), 6u);
    EXPECT_EQ(w[0].label(), "PPI (GCN)");
    EXPECT_EQ(w[1].label(), "PPI (GAT)");
    EXPECT_EQ(w[2].label(), "Reddit (GCN)");
    EXPECT_EQ(w[3].label(), "Ogbl (SAGE)");
    EXPECT_EQ(w[4].label(), "Amazon2M (GCN)");
    EXPECT_EQ(w[5].label(), "Amazon2M (SAGE)");
}

TEST(RegistryTest, Fig6AndFig7Subsets) {
    EXPECT_EQ(fig6_workloads().size(), 3u);
    EXPECT_EQ(fig7_workloads().size(), 4u);
    EXPECT_EQ(fig7_workloads()[0].label(), "Ogbl (SAGE)");
}

TEST(RegistryTest, DatasetsInstantiate) {
    for (const auto& w : fig5_workloads()) {
        const Dataset ds = w.make_dataset(1);
        EXPECT_EQ(ds.name, w.dataset);
        EXPECT_GT(ds.num_nodes(), 1000u);
    }
}

TEST(RegistryTest, TrainConfigUsesTableIIHyperparameters) {
    const WorkloadSpec w = find_workload("Reddit", GnnKind::kGCN);
    const TrainConfig tc = w.train_config(1);
    EXPECT_FLOAT_EQ(tc.lr, 0.01f);  // Table II
    EXPECT_EQ(tc.kind, GnnKind::kGCN);
    EXPECT_GT(tc.num_partitions, 0);
    EXPECT_GE(tc.num_partitions, tc.partitions_per_batch);
}

TEST(RegistryTest, EpochsOverridableByEnv) {
    setenv("FARE_EPOCHS", "7", 1);
    const TrainConfig tc = find_workload("PPI", GnnKind::kGCN).train_config(1);
    EXPECT_EQ(tc.epochs, 7u);
    unsetenv("FARE_EPOCHS");
}

TEST(RegistryTest, MalformedEpochsEnvRejected) {
    // Only a positive decimal integer counts: anything else is an error that
    // names the variable and the value, not a silent fall-back to 40.
    for (const char* bad : {"12x", "abc", "0", "-3", "", "+4", " 5", "1e3",
                            "99999999999999999999999"}) {
        setenv("FARE_EPOCHS", bad, 1);
        try {
            default_experiment_epochs();
            ADD_FAILURE() << "accepted FARE_EPOCHS='" << bad << "'";
        } catch (const InvalidArgument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("FARE_EPOCHS"), std::string::npos) << what;
            EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos) << what;
        }
    }
    unsetenv("FARE_EPOCHS");
    EXPECT_EQ(default_experiment_epochs(), 40u);
}

TEST(RegistryTest, PaperScaleTimingMirrorsTableII) {
    const WorkloadSpec w = find_workload("Amazon2M", GnnKind::kGCN);
    const WorkloadTiming t = w.paper_scale_timing();
    EXPECT_EQ(t.batches_per_epoch, 500u);  // 10000 partitions / batch 20
    EXPECT_EQ(t.epochs, 100u);
    EXPECT_EQ(t.hidden, 1024u);
}

TEST(RegistryTest, UnknownWorkloadThrows) {
    EXPECT_THROW(find_workload("MNIST", GnnKind::kGCN), InvalidArgument);
}

}  // namespace
}  // namespace fare
