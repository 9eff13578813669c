#include "models/transformer/transformer_trainer.hpp"

#include "common/error.hpp"

namespace fare {

namespace {

/// Sequences per mini-batch. Fixed (like the cluster-batch composition in
/// the GNN trainer): the fault-aware mapping is computed once in
/// preprocessing, so batch membership must not change across epochs.
constexpr std::size_t kSequencesPerBatch = 16;

}  // namespace

// Epoch salt 0x5EC7A5: a distinct shuffle stream from the GNN trainer's
// 0xE70C5, so a GNN and a transformer cell with the same seed stay
// decorrelated.
TransformerTrainer::TransformerTrainer(const SeqDataset& dataset,
                                       const TrainConfig& config,
                                       HardwareModel* hardware)
    : TrainLoop(config, hardware, dataset.num_classes, 0x5EC7A5ULL), dataset_(dataset) {
    TransformerConfig mc;
    mc.vocab_size = dataset.vocab_size;
    mc.seq_len = dataset.seq_len;
    mc.num_classes = dataset.num_classes;
    mc.d_model = config.hidden;
    mc.num_blocks = config.num_layers;
    mc.seed = config.seed;
    model_ = std::make_unique<TransformerModel>(mc);

    std::vector<std::size_t> train;
    for (std::size_t i = 0; i < dataset.num_sequences(); ++i)
        if (dataset.split[i] == Split::kTrain) train.push_back(i);
    FARE_CHECK(!train.empty(), "dataset has no training sequences");
    for (std::size_t start = 0; start < train.size(); start += kSequencesPerBatch) {
        const std::size_t end = std::min(start + kSequencesPerBatch, train.size());
        batches_.emplace_back(train.begin() + static_cast<std::ptrdiff_t>(start),
                              train.begin() + static_cast<std::ptrdiff_t>(end));
    }
}

Matrix TransformerTrainer::forward_batch(const std::vector<std::size_t>& seqs,
                                         std::vector<int>& labels) {
    std::vector<const std::vector<int>*> toks;
    toks.reserve(seqs.size());
    labels.clear();
    for (std::size_t s : seqs) {
        toks.push_back(&dataset_.tokens[s]);
        labels.push_back(dataset_.labels[s]);
    }
    return model_->forward(toks);
}

LossResult TransformerTrainer::train_batch(std::size_t batch,
                                           MetricAccumulator& metrics) {
    const auto& seqs = batches_[batch];
    zero_grads(model_->params());
    std::vector<int> labels;
    const Matrix logits = forward_batch(seqs, labels);
    const std::vector<bool> mask(seqs.size(), true);
    LossResult loss = softmax_cross_entropy(logits, labels, mask);
    if (loss.count == 0) return loss;
    metrics.update(logits, labels, mask);
    model_->backward(loss.grad);
    return loss;
}

void TransformerTrainer::evaluate(Split split, MetricAccumulator& metrics) {
    std::vector<std::size_t> seqs;
    for (std::size_t i = 0; i < dataset_.num_sequences(); ++i)
        if (dataset_.split[i] == split) seqs.push_back(i);
    if (seqs.empty()) return;
    std::vector<int> labels;
    const Matrix logits = forward_batch(seqs, labels);
    metrics.update(logits, labels, std::vector<bool>(seqs.size(), true));
}

}  // namespace fare
