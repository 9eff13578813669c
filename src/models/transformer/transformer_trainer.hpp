// Mini-batch transformer trainer over (possibly faulty) simulated ReRAM
// hardware — the sequence-family adapter on nn/train_loop, which owns the
// epoch loop, the effective-weight refresh and the step/epoch hooks.
//
// There is no adjacency stream (sequences attend densely), so preprocess()
// keeps the loop's default: the mapper only finishes its weight layout.
#pragma once

#include <memory>
#include <vector>

#include "nn/train_loop.hpp"
#include "models/transformer/seq_dataset.hpp"
#include "models/transformer/transformer_model.hpp"

namespace fare {

class TransformerTrainer final : public TrainLoop {
public:
    /// `hardware` may be null => ideal (fault-free) hardware. Not owned.
    /// TrainConfig reuse: hidden -> d_model, num_layers -> blocks; the graph
    /// partitioning knobs are ignored (nothing to partition).
    TransformerTrainer(const SeqDataset& dataset, const TrainConfig& config,
                       HardwareModel* hardware = nullptr);

    TransformerModel& model() { return *model_; }
    std::size_t num_batches() const override { return batches_.size(); }

private:
    std::vector<Param*> params() override { return model_->params(); }
    LossResult train_batch(std::size_t batch, MetricAccumulator& metrics) override;
    void evaluate(Split split, MetricAccumulator& metrics) override;

    /// Forward `seqs` and collect their labels.
    Matrix forward_batch(const std::vector<std::size_t>& seqs, std::vector<int>& labels);

    const SeqDataset& dataset_;
    std::unique_ptr<TransformerModel> model_;
    /// Fixed train mini-batches (contiguous chunks; order shuffled per epoch).
    std::vector<std::vector<std::size_t>> batches_;
};

}  // namespace fare
