// Contract tests for nn/train_loop: a toy third model family — a linear
// softmax classifier over fixed batches — implements only the adapter hooks
// and trains through TrainLoop::run(), against a HardwareModel that records
// every call the loop makes.
#include "nn/train_loop.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {
namespace {

constexpr int kClasses = 3;
constexpr std::size_t kFeatures = 4;
constexpr std::size_t kRows = 6;
constexpr std::size_t kBatches = 4;
constexpr std::size_t kEmptyBatch = 2;  ///< holds no training rows

struct ToyBatch {
    Matrix x;
    std::vector<int> labels;
    std::vector<Split> split;  ///< per row
};

std::vector<bool> mask_of(const ToyBatch& batch, Split split) {
    std::vector<bool> mask(batch.split.size());
    for (std::size_t r = 0; r < mask.size(); ++r) mask[r] = batch.split[r] == split;
    return mask;
}

/// logits = X W + b over four fixed batches of linearly separable rows.
class ToyTrainer final : public TrainLoop {
public:
    ToyTrainer(const TrainConfig& config, HardwareModel* hardware)
        : TrainLoop(config, hardware, kClasses, 0x7047ULL) {
        Rng rng(config.seed);
        w_ = Param(kFeatures, kClasses, rng);
        b_.value = Matrix(1, kClasses);  // zero bias
        Rng data(99);
        for (std::size_t bi = 0; bi < kBatches; ++bi) {
            ToyBatch batch;
            batch.x = Matrix(kRows, kFeatures);
            for (std::size_t r = 0; r < kRows; ++r) {
                for (std::size_t c = 0; c < kFeatures; ++c)
                    batch.x(r, c) = data.uniform(-1.0f, 1.0f);
                // Class = the largest of the first kClasses features.
                int label = 0;
                for (int k = 1; k < kClasses; ++k)
                    if (batch.x(r, k) > batch.x(r, label)) label = k;
                batch.labels.push_back(label);
                const Split split = bi == kEmptyBatch ? (r % 2 ? Split::kVal : Split::kTest)
                                    : r < 4           ? Split::kTrain
                                    : r == 4          ? Split::kVal
                                                      : Split::kTest;
                batch.split.push_back(split);
            }
            batches_.push_back(std::move(batch));
        }
    }

    std::size_t num_batches() const override { return batches_.size(); }

    /// Batch ids handed to train_batch, in call order.
    std::vector<std::size_t> visits;
    /// train_batch calls that reported supervised rows.
    std::size_t supervised_batches = 0;

private:
    std::vector<Param*> params() override { return {&w_, &b_}; }

    Matrix forward(const ToyBatch& batch) const {
        Matrix logits = matmul(batch.x, w_.effective);
        for (std::size_t r = 0; r < logits.rows(); ++r)
            for (std::size_t c = 0; c < logits.cols(); ++c)
                logits(r, c) += b_.effective(0, c);
        return logits;
    }

    LossResult train_batch(std::size_t batch_idx, MetricAccumulator& metrics) override {
        visits.push_back(batch_idx);
        const ToyBatch& batch = batches_[batch_idx];
        const Matrix logits = forward(batch);
        const std::vector<bool> mask = mask_of(batch, Split::kTrain);
        LossResult loss = softmax_cross_entropy(logits, batch.labels, mask);
        if (loss.count == 0) return loss;
        ++supervised_batches;
        metrics.update(logits, batch.labels, mask);
        w_.grad = matmul_at_b(batch.x, loss.grad);
        b_.grad = Matrix(1, kClasses);
        for (std::size_t r = 0; r < loss.grad.rows(); ++r)
            for (std::size_t c = 0; c < kClasses; ++c) b_.grad(0, c) += loss.grad(r, c);
        return loss;
    }

    void evaluate(Split split, MetricAccumulator& metrics) override {
        for (const ToyBatch& batch : batches_)
            metrics.update(forward(batch), batch.labels, mask_of(batch, split));
    }

    Param w_, b_;
    std::vector<ToyBatch> batches_;
};

struct StepHook {
    std::size_t epoch, step, steps;
};

/// Identity read-out that logs every call. `versioned` pins both state
/// stamps (cacheable); otherwise the base class hands out fresh ones.
class RecordingHardware final : public HardwareModel {
public:
    explicit RecordingHardware(bool versioned) : versioned_(versioned) {}

    void bind_params(const std::vector<Matrix*>& params) override {
        calls.push_back("bind");
        bound = params.size();
    }
    void preprocess(const std::vector<BitMatrix>& batch_adjacency) override {
        calls.push_back("preprocess");
        adjacency_batches = batch_adjacency.size();
    }
    Matrix effective_weights(std::size_t, const Matrix& w) override {
        ++weight_reads;
        return w;
    }
    void on_step_end(std::size_t epoch, std::size_t step, std::size_t steps) override {
        step_hooks.push_back({epoch, step, steps});
    }
    void on_epoch_end(std::size_t epoch) override { epoch_hooks.push_back(epoch); }
    std::uint64_t weights_state_version() const override {
        return versioned_ ? 7 : HardwareModel::weights_state_version();
    }
    std::uint64_t adjacency_state_version() const override {
        return versioned_ ? 7 : HardwareModel::adjacency_state_version();
    }

    std::vector<std::string> calls;
    std::size_t bound = 0;
    std::size_t adjacency_batches = 99;
    std::size_t weight_reads = 0;
    std::vector<StepHook> step_hooks;
    std::vector<std::size_t> epoch_hooks;

private:
    bool versioned_;
};

TrainConfig toy_config(bool record_curve) {
    TrainConfig tc;
    tc.epochs = 6;
    tc.lr = 0.05f;
    tc.seed = 4;
    tc.record_curve = record_curve;
    return tc;
}

TEST(TrainLoopTest, BindsThenPreprocessesWithNoAdjacencyStream) {
    RecordingHardware hw(true);
    ToyTrainer trainer(toy_config(false), &hw);
    trainer.run();
    EXPECT_EQ(hw.calls, (std::vector<std::string>{"bind", "preprocess"}));
    EXPECT_EQ(hw.bound, 2u);
    EXPECT_EQ(hw.adjacency_batches, 0u);
}

TEST(TrainLoopTest, StepHookFiresPerOptimizerStepWithInEpochIndex) {
    RecordingHardware hw(true);
    const TrainConfig tc = toy_config(true);
    ToyTrainer trainer(tc, &hw);
    trainer.run();

    ASSERT_EQ(trainer.visits.size(), tc.epochs * kBatches);
    EXPECT_EQ(trainer.supervised_batches, tc.epochs * (kBatches - 1));
    ASSERT_EQ(hw.step_hooks.size(), trainer.supervised_batches);
    // The expected hooks: every in-epoch step except the empty batch's,
    // which skips both the optimizer step and the hook without shifting
    // the index of the steps after it.
    std::vector<std::size_t> expected;
    bool empty_batch_mid_epoch = false;
    for (std::size_t e = 0; e < tc.epochs; ++e) {
        for (std::size_t s = 0; s < kBatches; ++s) {
            if (trainer.visits[e * kBatches + s] == kEmptyBatch) {
                empty_batch_mid_epoch |= s + 1 < kBatches;
                continue;
            }
            expected.push_back(e * kBatches + s);
        }
    }
    EXPECT_TRUE(empty_batch_mid_epoch);  // the seed exercises index keeping
    for (std::size_t i = 0; i < hw.step_hooks.size(); ++i) {
        const StepHook& hook = hw.step_hooks[i];
        EXPECT_EQ(hook.epoch * kBatches + hook.step, expected[i]);
        EXPECT_EQ(hook.steps, kBatches);
    }
    EXPECT_EQ(hw.epoch_hooks, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(TrainLoopTest, ConstantStampsReadWeightsOncePerOptimizerStep) {
    for (const bool record_curve : {false, true}) {
        RecordingHardware hw(true);
        ToyTrainer trainer(toy_config(record_curve), &hw);
        trainer.run();
        // One read of every param up front, then one after each step.
        EXPECT_EQ(hw.weight_reads, 2 * (trainer.supervised_batches + 1));
    }
}

TEST(TrainLoopTest, FreshStampsReadWeightsOnEveryRefresh) {
    for (const bool record_curve : {false, true}) {
        RecordingHardware hw(false);
        const TrainConfig tc = toy_config(record_curve);
        ToyTrainer trainer(tc, &hw);
        trainer.run();
        // A refresh before every batch (the empty one too), before each
        // curve point's validation pass and before the final test pass.
        const std::size_t refreshes =
            tc.epochs * kBatches + (record_curve ? tc.epochs : 0) + 1;
        EXPECT_EQ(hw.weight_reads, 2 * refreshes);
    }
}

TEST(TrainLoopTest, ImportRejectsCountAndShapeMismatch) {
    RecordingHardware hw(true);
    ToyTrainer trainer(toy_config(false), &hw);
    EXPECT_THROW(trainer.import_params({Matrix(kFeatures, kClasses)}), InvalidArgument);
    EXPECT_THROW(trainer.import_params({Matrix(kFeatures, kClasses), Matrix(2, 2)}),
                 InvalidArgument);
    trainer.evaluate_test_accuracy();
    const std::vector<Matrix> zeros = {Matrix(kFeatures, kClasses), Matrix(1, kClasses)};
    trainer.import_params(zeros);
    EXPECT_EQ(trainer.export_params(), zeros);
    // An import stamps the params, so the next evaluation re-reads them.
    trainer.evaluate_test_accuracy();
    EXPECT_EQ(hw.weight_reads, 4u);
}

TEST(TrainLoopTest, RunsAreIdenticalAndLearn) {
    const auto train = [](HardwareModel* hw) {
        ToyTrainer trainer(toy_config(true), hw);
        TrainResult result = trainer.run();
        return std::make_pair(result, trainer.export_params());
    };
    RecordingHardware hw_a(true), hw_b(true);
    const auto [a, params_a] = train(&hw_a);
    const auto [b, params_b] = train(&hw_b);
    EXPECT_EQ(params_a, params_b);
    EXPECT_EQ(a.test_accuracy, b.test_accuracy);
    EXPECT_EQ(a.test_macro_f1, b.test_macro_f1);
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (std::size_t e = 0; e < a.curve.size(); ++e) {
        EXPECT_EQ(a.curve[e].train_loss, b.curve[e].train_loss);
        EXPECT_EQ(a.curve[e].val_accuracy, b.curve[e].val_accuracy);
    }
    EXPECT_LT(a.curve.back().train_loss, a.curve.front().train_loss);

    // Null hardware copies logical -> effective, like identity read-out.
    const auto [ideal, params_ideal] = train(nullptr);
    EXPECT_EQ(params_ideal, params_a);
    EXPECT_EQ(ideal.test_accuracy, a.test_accuracy);
}

}  // namespace
}  // namespace fare
