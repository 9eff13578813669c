#include "models/gnn/trainer.hpp"

#include "common/error.hpp"
#include "graph/partitioner.hpp"
#include "graph/subgraph.hpp"

namespace fare {

Trainer::Trainer(const Dataset& dataset, const TrainConfig& config,
                 HardwareModel* hardware)
    : TrainLoop(config, hardware, dataset.num_classes, 0xE70C5ULL) {
    FARE_CHECK(config.num_partitions >= config.partitions_per_batch,
               "more partitions per batch than partitions");

    ModelConfig mc;
    mc.kind = config.kind;
    mc.in_features = dataset.num_features();
    mc.hidden = config.hidden;
    mc.num_classes = static_cast<std::size_t>(dataset.num_classes);
    mc.num_layers = config.num_layers;
    mc.seed = config.seed;
    model_ = std::make_unique<Model>(mc);

    // Host preprocessing: partition once, form fixed cluster batches. The
    // batch composition stays fixed across epochs (the paper computes the
    // fault-aware mapping Pi once in preprocessing); only the processing
    // order is shuffled per epoch. The algorithm is a sweepable knob: any
    // registered partitioner, selected by name ("multilevel" reproduces the
    // paper's METIS workflow).
    const Partitioner& algo = find_partitioner(config.partitioner);
    const auto parts =
        algo.partition(dataset.graph, config.num_partitions, config.seed);
    partition_quality_ = compute_quality(dataset.graph, parts, algo.name());
    auto subs = make_cluster_batches(dataset.graph, parts, config.partitions_per_batch,
                                     config.seed);

    batches_.reserve(subs.size());
    for (auto& sub : subs) {
        BatchData b;
        const std::size_t n = sub.nodes.size();
        b.features = Matrix(n, dataset.num_features());
        b.labels.resize(n);
        b.train_mask.assign(n, false);
        b.val_mask.assign(n, false);
        b.test_mask.assign(n, false);
        for (std::size_t i = 0; i < n; ++i) {
            const NodeId g = sub.nodes[i];
            auto dst = b.features.row(i);
            auto src = dataset.features.row(g);
            std::copy(src.begin(), src.end(), dst.begin());
            b.labels[i] = dataset.labels[g];
            switch (dataset.split[g]) {
                case Split::kTrain: b.train_mask[i] = true; break;
                case Split::kVal: b.val_mask[i] = true; break;
                case Split::kTest: b.test_mask[i] = true; break;
            }
        }
        b.ideal_view = BatchGraphView::from_graph(sub.graph);
        batch_bits_.push_back(BitMatrix::from_graph(sub.graph));
        batch_parts_.push_back(std::move(sub.node_part));
        batches_.push_back(std::move(b));
    }
}

void Trainer::preprocess(HardwareModel& hardware) {
    hardware.set_batch_partitions(batch_parts_);
    hardware.preprocess(batch_bits_);
}

const BatchGraphView& Trainer::effective_view(std::size_t batch_idx) {
    if (hardware() == nullptr) return batches_[batch_idx].ideal_view;
    const std::uint64_t stamp = hardware()->adjacency_state_version();
    if (views_stamp_ != stamp) {
        views_.assign(batches_.size(), std::nullopt);
        views_stamp_ = stamp;
    }
    std::optional<BatchGraphView>& view = views_[batch_idx];
    if (!view)
        view = BatchGraphView::from_bits(
            hardware()->effective_adjacency(batch_idx, batch_bits_[batch_idx]));
    return *view;
}

LossResult Trainer::train_batch(std::size_t batch_idx, MetricAccumulator& metrics) {
    const BatchData& batch = batches_[batch_idx];
    const BatchGraphView& view = effective_view(batch_idx);
    model_->zero_grads();
    const Matrix logits = model_->forward(batch.features, view);
    LossResult loss = softmax_cross_entropy(logits, batch.labels, batch.train_mask);
    if (loss.count == 0) return loss;
    metrics.update(logits, batch.labels, batch.train_mask);
    model_->backward(loss.grad, view);
    return loss;
}

void Trainer::evaluate(Split split, MetricAccumulator& metrics) {
    for (std::size_t bi = 0; bi < batches_.size(); ++bi) {
        const BatchData& batch = batches_[bi];
        const Matrix logits = model_->forward(batch.features, effective_view(bi));
        const auto& mask = split == Split::kTrain  ? batch.train_mask
                           : split == Split::kVal ? batch.val_mask
                                                  : batch.test_mask;
        metrics.update(logits, batch.labels, mask);
    }
}

}  // namespace fare
