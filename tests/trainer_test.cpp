#include "models/gnn/trainer.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include "fare/baselines.hpp"
#include "graph/generators.hpp"

namespace fare {
namespace {

Dataset small_dataset(std::uint64_t seed = 1) {
    SbmSpec spec;
    spec.num_nodes = 400;
    spec.num_classes = 4;
    spec.num_features = 16;
    spec.avg_degree = 12.0;
    spec.homophily = 0.85;
    // Weak per-node features: aggregation over the graph must do real work,
    // so adjacency-corrupting hardware hooks have a measurable effect.
    spec.feature_signal = 0.45;
    spec.seed = seed;
    return make_sbm_dataset(spec);
}

TrainConfig fast_config(GnnKind kind) {
    TrainConfig tc;
    tc.kind = kind;
    tc.hidden = 16;
    tc.epochs = 15;
    tc.num_partitions = 8;
    tc.partitions_per_batch = 2;
    tc.seed = 3;
    return tc;
}

TEST(TrainerTest, LearnsOnIdealHardware) {
    const Dataset ds = small_dataset();
    Trainer trainer(ds, fast_config(GnnKind::kGCN));
    const TrainResult result = trainer.run();
    EXPECT_GT(result.test_accuracy, 0.75);
    EXPECT_GT(result.test_macro_f1, 0.7);
}

TEST(TrainerTest, LossDecreasesAcrossTraining) {
    const Dataset ds = small_dataset();
    Trainer trainer(ds, fast_config(GnnKind::kGCN));
    const TrainResult result = trainer.run();
    ASSERT_GE(result.curve.size(), 10u);
    EXPECT_LT(result.curve.back().train_loss, result.curve.front().train_loss * 0.6f);
    EXPECT_GT(result.curve.back().train_accuracy,
              result.curve.front().train_accuracy);
}

/// All three GNN kinds learn the same task (model-agnosticism, paper claim).
class TrainerKindTest : public ::testing::TestWithParam<GnnKind> {};

TEST_P(TrainerKindTest, Learns) {
    const Dataset ds = small_dataset(5);
    Trainer trainer(ds, fast_config(GetParam()));
    const TrainResult result = trainer.run();
    EXPECT_GT(result.test_accuracy, 0.7) << gnn_kind_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TrainerKindTest,
                         ::testing::Values(GnnKind::kGCN, GnnKind::kGAT,
                                           GnnKind::kSAGE),
                         [](const ::testing::TestParamInfo<GnnKind>& info) {
                             return gnn_kind_name(info.param);
                         });

TEST(TrainerTest, DeterministicForSeed) {
    const Dataset ds = small_dataset(7);
    const TrainConfig tc = fast_config(GnnKind::kGCN);
    const TrainResult a = Trainer(ds, tc).run();
    const TrainResult b = Trainer(ds, tc).run();
    EXPECT_DOUBLE_EQ(a.test_accuracy, b.test_accuracy);
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (std::size_t e = 0; e < a.curve.size(); ++e)
        EXPECT_FLOAT_EQ(a.curve[e].train_loss, b.curve[e].train_loss);
}

TEST(TrainerTest, BatchesCoverGraph) {
    const Dataset ds = small_dataset(9);
    Trainer trainer(ds, fast_config(GnnKind::kGCN));
    std::size_t total_nodes = 0;
    for (const auto& bits : trainer.batch_adjacency()) total_nodes += bits.rows;
    EXPECT_EQ(total_nodes, ds.num_nodes());
    EXPECT_EQ(trainer.num_batches(), 4u);  // 8 partitions / 2
}

/// A hardware model that zeroes all weights must destroy accuracy — proves
/// the trainer actually routes compute through the hardware hook.
class ZeroingHardware final : public HardwareModel {
public:
    Matrix effective_weights(std::size_t, const Matrix& w) override {
        return Matrix(w.rows(), w.cols(), 0.0f);
    }
};

TEST(TrainerTest, HardwareHookControlsCompute) {
    const Dataset ds = small_dataset(11);
    ZeroingHardware hw;
    Trainer trainer(ds, fast_config(GnnKind::kGCN), &hw);
    const TrainResult result = trainer.run();
    EXPECT_LT(result.test_accuracy, 0.5);  // chance-ish: logits all zero
}

/// Hardware that deletes every edge (empty adjacency) should hurt but not
/// destroy (features alone still carry signal).
class EdgeDeletingHardware final : public HardwareModel {
public:
    BitMatrix effective_adjacency(std::size_t, const BitMatrix& ideal) override {
        return BitMatrix(ideal.rows, ideal.cols);
    }
};

TEST(TrainerTest, AdjacencyHookControlsAggregation) {
    const Dataset ds = small_dataset(13);
    const TrainResult ideal = Trainer(ds, fast_config(GnnKind::kGCN)).run();
    EdgeDeletingHardware hw;
    Trainer degraded(ds, fast_config(GnnKind::kGCN), &hw);
    const TrainResult result = degraded.run();
    EXPECT_LT(result.test_accuracy, ideal.test_accuracy - 0.02);
}

/// Epoch-end hook fires exactly once per epoch; the step hook fires once
/// per optimizer step with in-epoch indices.
class CountingHardware final : public HardwareModel {
public:
    void on_step_end(std::size_t, std::size_t step,
                     std::size_t steps_per_epoch) override {
        ++steps;
        last_step = step;
        last_steps_per_epoch = steps_per_epoch;
    }
    void on_epoch_end(std::size_t) override { ++count; }
    int count = 0;
    int steps = 0;
    std::size_t last_step = 0;
    std::size_t last_steps_per_epoch = 0;
};

TEST(TrainerTest, EpochHookFires) {
    const Dataset ds = small_dataset(15);
    CountingHardware hw;
    TrainConfig tc = fast_config(GnnKind::kGCN);
    tc.epochs = 6;
    Trainer trainer(ds, tc, &hw);
    trainer.run();
    EXPECT_EQ(hw.count, 6);
}

TEST(TrainerTest, StepHookFiresOncePerOptimizerStep) {
    const Dataset ds = small_dataset(15);
    CountingHardware hw;
    TrainConfig tc = fast_config(GnnKind::kGCN);
    tc.epochs = 3;
    Trainer trainer(ds, tc, &hw);
    trainer.run();
    // 8 partitions / 2 per batch = 4 steps per epoch (every batch holds
    // training nodes in the SBM split).
    EXPECT_EQ(hw.steps, 3 * 4);
    EXPECT_EQ(hw.last_steps_per_epoch, 4u);
    EXPECT_EQ(hw.last_step, 3u);  // 0-based index within the epoch
}

/// Mid-epoch arrival integration: live wear + a per-step arrival cadence
/// must (a) wear cells out, (b) hurt accuracy vs an unworn chip, and (c)
/// still train deterministically for a fixed seed.
TEST(TrainerTest, LiveWearArrivesMidEpochAndDegradesTraining) {
    const Dataset ds = small_dataset(19);
    TrainConfig tc = fast_config(GnnKind::kGCN);
    tc.epochs = 8;

    FaultyHardwareConfig config;
    config.hardware.num_tiles = 1;
    config.faults.density = 0.0;
    config.seed = 5;
    config.faults.wear.endurance_mean_writes = 2000.0;
    config.faults.wear.writes_per_step = 100;  // ~3200 writes over the run
    config.faults.wear.hot_spot_fraction = 0.25;
    config.faults.arrival_period_batches = 1;

    FaultyHardware worn_hw(Scheme::kFaultUnaware, config);
    Trainer worn(ds, tc, &worn_hw);
    const TrainResult worn_result = worn.run();
    EXPECT_GT(worn_hw.wear_faults(), 0u);

    FaultyHardwareConfig pristine = config;
    pristine.faults.wear.endurance_mean_writes = 0.0;
    FaultyHardware clean_hw(Scheme::kFaultUnaware, pristine);
    Trainer clean(ds, tc, &clean_hw);
    const TrainResult clean_result = clean.run();
    EXPECT_EQ(clean_hw.wear_faults(), 0u);
    EXPECT_LT(worn_result.test_accuracy, clean_result.test_accuracy - 0.02);

    FaultyHardware replay_hw(Scheme::kFaultUnaware, config);
    Trainer replay(ds, tc, &replay_hw);
    const TrainResult replay_result = replay.run();
    EXPECT_DOUBLE_EQ(replay_result.test_accuracy, worn_result.test_accuracy);
    EXPECT_EQ(replay_hw.wear_faults(), worn_hw.wear_faults());
}

TEST(TrainerTest, InvalidConfigRejected) {
    const Dataset ds = small_dataset(17);
    TrainConfig tc = fast_config(GnnKind::kGCN);
    tc.epochs = 0;
    EXPECT_THROW(Trainer(ds, tc), InvalidArgument);
    TrainConfig tc2 = fast_config(GnnKind::kGCN);
    tc2.num_partitions = 1;
    tc2.partitions_per_batch = 4;
    EXPECT_THROW(Trainer(ds, tc2), InvalidArgument);
}

}  // namespace
}  // namespace fare
