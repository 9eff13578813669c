// Transformer family: dataset generator determinism, finite-difference
// gradient check of the hand-derived attention/MLP backward, trainer
// determinism and learning above chance, and the family-level scheme runs
// (fault-free vs fault-unaware vs FARe on the same crossbar fabric).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fare/fare_trainer.hpp"
#include "fare/scenario.hpp"
#include "models/transformer/seq_dataset.hpp"
#include "models/transformer/transformer_model.hpp"
#include "models/transformer/transformer_trainer.hpp"
#include "nn/loss.hpp"
#include "nn/model_family.hpp"
#include "sim/registry.hpp"

namespace fare {
namespace {

TEST(SeqDatasetTest, GeneratorIsDeterministicAndBalanced) {
    const SeqDatasetConfig config;
    const SeqDataset a = make_seq_cls(config, 42);
    const SeqDataset b = make_seq_cls(config, 42);
    EXPECT_EQ(a.tokens, b.tokens);
    EXPECT_EQ(a.labels, b.labels);
    ASSERT_EQ(a.num_sequences(),
              static_cast<std::size_t>(config.train_sequences +
                                       config.val_sequences +
                                       config.test_sequences));
    // Round-robin class assignment: every class within one sequence of even.
    std::vector<int> counts(config.num_classes, 0);
    for (const int label : a.labels) ++counts[label];
    for (const int count : counts)
        EXPECT_NEAR(count, a.num_sequences() / config.num_classes, 1);
    // A different seed produces different data.
    const SeqDataset c = make_seq_cls(config, 43);
    EXPECT_NE(a.tokens, c.tokens);
    // Tokens stay inside the vocabulary.
    for (const auto& seq : a.tokens)
        for (const int token : seq) {
            EXPECT_GE(token, 0);
            EXPECT_LT(token, config.vocab_size);
        }
}

/// Mean CE loss of the model's current *logical* weights on a fixed batch.
float batch_loss(TransformerModel& model,
                 const std::vector<const std::vector<int>*>& batch,
                 const std::vector<int>& labels) {
    sync_effective(model.params());
    const Matrix logits = model.forward(batch);
    const std::vector<bool> mask(labels.size(), true);
    return softmax_cross_entropy(logits, labels, mask).loss;
}

TEST(TransformerModelTest, BackwardMatchesFiniteDifferences) {
    TransformerConfig config;
    config.vocab_size = 8;
    config.seq_len = 4;
    config.num_classes = 2;
    config.d_model = 4;
    config.num_blocks = 1;
    config.ff_mult = 2;
    config.seed = 3;
    TransformerModel model(config);

    const std::vector<std::vector<int>> sequences = {
        {1, 5, 2, 7}, {0, 3, 3, 6}, {4, 1, 7, 2}};
    const std::vector<int> labels = {0, 1, 1};
    std::vector<const std::vector<int>*> batch;
    for (const auto& seq : sequences) batch.push_back(&seq);

    // Analytic gradients at the base point.
    const std::vector<Param*> params = model.params();
    zero_grads(params);
    sync_effective(params);
    const Matrix logits = model.forward(batch);
    const std::vector<bool> mask(labels.size(), true);
    const LossResult loss = softmax_cross_entropy(logits, labels, mask);
    model.backward(loss.grad);

    const float eps = 1e-2f;
    std::size_t checked = 0;
    for (std::size_t p = 0; p < params.size(); ++p) {
        Matrix& w = params[p]->value;
        const Matrix& g = params[p]->grad;
        // A few entries per matrix keeps this fast yet touches every layer:
        // embedding, position, attention projections, MLP, classifier.
        const std::size_t n = w.rows() * w.cols();
        for (const std::size_t idx : {std::size_t{0}, n / 2, n - 1}) {
            const float saved = w.flat()[idx];
            w.flat()[idx] = saved + eps;
            const float up = batch_loss(model, batch, labels);
            w.flat()[idx] = saved - eps;
            const float down = batch_loss(model, batch, labels);
            w.flat()[idx] = saved;
            const float numeric = (up - down) / (2 * eps);
            const float analytic = g.flat()[idx];
            EXPECT_NEAR(analytic, numeric,
                        5e-2f * std::max(1.0f, std::fabs(numeric)))
                << "param " << p << " entry " << idx;
            ++checked;
        }
    }
    EXPECT_GE(checked, 3u * params.size());
    sync_effective(params);  // restore effective = logical
}

TEST(TransformerTrainerTest, DeterministicAndLearnsAboveChance) {
    SeqDatasetConfig data_config;
    const SeqDataset dataset = make_seq_cls(data_config, 1);
    TrainConfig config;
    config.hidden = 16;     // d_model
    config.num_layers = 1;  // blocks
    config.lr = 0.005f;
    config.epochs = 3;
    config.seed = 1;
    config.record_curve = true;
    TransformerTrainer first(dataset, config);
    const TrainResult a = first.run();
    TransformerTrainer second(dataset, config);
    const TrainResult b = second.run();
    EXPECT_DOUBLE_EQ(a.test_accuracy, b.test_accuracy);
    ASSERT_EQ(a.curve.size(), config.epochs);
    // Chance is 1/num_classes = 0.25; the marker task is nearly separable.
    EXPECT_GT(a.test_accuracy, 0.5);
}

TEST(TransformerFamilyTest, RegistryConfigAndTiming) {
    const ModelFamily& family = find_model_family("transformer");
    const WorkloadSpec workload = find_workload("transformer", "SeqCls");
    const TrainConfig config = family.train_config(workload, 11);
    EXPECT_EQ(config.seed, 11u);
    EXPECT_GT(config.hidden, 0u);
    const WorkloadTiming timing = family.paper_scale_timing(workload);
    EXPECT_GT(timing.weight_rows_total, 0u);
    EXPECT_GT(timing.batches_per_epoch, 0u);
}

TEST(TransformerFamilyTest, FaultSchemesMoveAccuracyOnTheFabric) {
    const ModelFamily& family = find_model_family("transformer");
    const WorkloadSpec workload = find_workload("transformer", "SeqCls");
    TrainConfig config = family.train_config(workload, 1);
    config.epochs = 2;
    const FaultScenario scenario = FaultScenario::pre_deployment(0.03, 0.5);
    const HardwareOverrides hw;

    const TrainerFactory trainers = family.make_trainers(workload, config);
    const SchemeRunResult ideal =
        run_scheme(trainers, Scheme::kFaultFree, config, scenario, hw, 1);
    const SchemeRunResult unaware =
        run_scheme(trainers, Scheme::kFaultUnaware, config, scenario, hw, 1);
    const SchemeRunResult fare =
        run_scheme(trainers, Scheme::kFARe, config, scenario, hw, 1);

    // Fault-free trains the task; stuck-at faults hurt; FARe's fault-aware
    // mapping recovers a nonzero share of the loss (the paper's claim,
    // reproduced on the transformer family).
    EXPECT_GT(ideal.train.test_accuracy, 0.5);
    EXPECT_GT(ideal.train.test_accuracy, unaware.train.test_accuracy);
    EXPECT_GT(fare.train.test_accuracy, unaware.train.test_accuracy);
    // And deterministically so.
    const SchemeRunResult fare_again = run_scheme(
        family.make_trainers(workload, config), Scheme::kFARe, config, scenario, hw, 1);
    EXPECT_DOUBLE_EQ(fare.train.test_accuracy,
                     fare_again.train.test_accuracy);
}

TEST(TransformerFamilyTest, DeployModeRunsOnFaultyHardware) {
    const ModelFamily& family = find_model_family("transformer");
    const WorkloadSpec workload = find_workload("transformer", "SeqCls");
    TrainConfig config = family.train_config(workload, 1);
    config.epochs = 2;
    const FaultScenario scenario = FaultScenario::pre_deployment(0.03, 0.5);
    const DeploymentResult result =
        run_deployment(family.make_trainers(workload, config), Scheme::kFARe, config,
                       scenario, HardwareOverrides{}, 1);
    EXPECT_GT(result.trained_accuracy, 0.5);
    EXPECT_GE(result.deployed_accuracy, 0.0);
    EXPECT_LE(result.deployed_accuracy, 1.0);
}

}  // namespace
}  // namespace fare
