#include "models/gnn/trainer.hpp"

#include "common/error.hpp"
#include "graph/partitioner.hpp"
#include "graph/subgraph.hpp"

namespace fare {

std::shared_ptr<const GnnBatchSet> build_gnn_batches(const Dataset& dataset,
                                                     const TrainConfig& config) {
    FARE_CHECK(config.num_partitions >= config.partitions_per_batch,
               "more partitions per batch than partitions");
    auto set = std::make_shared<GnnBatchSet>();
    set->num_features = dataset.num_features();
    set->num_classes = dataset.num_classes;

    // Host preprocessing: partition once, form fixed cluster batches. The
    // batch composition stays fixed across epochs (the paper computes the
    // fault-aware mapping Pi once in preprocessing); only the processing
    // order is shuffled per epoch. The algorithm is a sweepable knob: any
    // registered partitioner, selected by name ("multilevel" reproduces the
    // paper's METIS workflow).
    const Partitioner& algo = find_partitioner(config.partitioner);
    const auto parts =
        algo.partition(dataset.graph, config.num_partitions, config.seed);
    set->partition_quality = compute_quality(dataset.graph, parts, algo.name);
    auto subs = make_cluster_batches(dataset.graph, parts, config.partitions_per_batch,
                                     config.seed);

    set->batches.reserve(subs.size());
    for (auto& sub : subs) {
        GnnBatchSet::Batch b;
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
        set->adjacency.push_back(BitMatrix::from_graph(sub.graph));
        set->node_parts.push_back(std::move(sub.node_part));
        set->batches.push_back(std::move(b));
    }
    return set;
}

Trainer::Trainer(const Dataset& dataset, const TrainConfig& config,
                 HardwareModel* hardware)
    : Trainer(build_gnn_batches(dataset, config), config, hardware) {}

Trainer::Trainer(std::shared_ptr<const GnnBatchSet> data, const TrainConfig& config,
                 HardwareModel* hardware)
    : TrainLoop(config, hardware, data->num_classes, 0xE70C5ULL), data_(std::move(data)) {
    ModelConfig mc;
    mc.kind = config.kind;
    mc.in_features = data_->num_features;
    mc.hidden = config.hidden;
    mc.num_classes = static_cast<std::size_t>(data_->num_classes);
    mc.num_layers = config.num_layers;
    mc.seed = config.seed;
    model_ = std::make_unique<Model>(mc);
    partition_quality_ = data_->partition_quality;
}

void Trainer::preprocess(HardwareModel& hardware) {
    hardware.set_batch_partitions(data_->node_parts);
    hardware.preprocess(data_->adjacency);
}

const BatchGraphView& Trainer::effective_view(std::size_t batch_idx) {
    if (hardware() == nullptr) return data_->batches[batch_idx].ideal_view;
    const std::uint64_t stamp = hardware()->adjacency_state_version();
    if (views_stamp_ != stamp) {
        views_.assign(data_->batches.size(), std::nullopt);
        views_stamp_ = stamp;
    }
    std::optional<BatchGraphView>& view = views_[batch_idx];
    if (!view)
        view = BatchGraphView::from_bits(
            hardware()->effective_adjacency(batch_idx, data_->adjacency[batch_idx]));
    return *view;
}

LossResult Trainer::train_batch(std::size_t batch_idx, MetricAccumulator& metrics) {
    const GnnBatchSet::Batch& batch = data_->batches[batch_idx];
    const BatchGraphView& view = effective_view(batch_idx);
    zero_grads(model_->params());
    const Matrix logits = model_->forward(batch.features, view);
    LossResult loss = softmax_cross_entropy(logits, batch.labels, batch.train_mask);
    if (loss.count == 0) return loss;
    metrics.update(logits, batch.labels, batch.train_mask);
    model_->backward(loss.grad, view);
    return loss;
}

void Trainer::evaluate(Split split, MetricAccumulator& metrics) {
    for (std::size_t bi = 0; bi < data_->batches.size(); ++bi) {
        const GnnBatchSet::Batch& batch = data_->batches[bi];
        const Matrix logits = model_->forward(batch.features, effective_view(bi));
        const auto& mask = split == Split::kTrain  ? batch.train_mask
                           : split == Split::kVal ? batch.val_mask
                                                  : batch.test_mask;
        metrics.update(logits, batch.labels, mask);
    }
}

}  // namespace fare
