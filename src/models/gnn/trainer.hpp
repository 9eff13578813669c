// Mini-batch GNN trainer over (possibly faulty) simulated ReRAM hardware.
//
// Follows the paper's pipeline (Fig. 2): the graph is METIS-partitioned
// once on the host, partitions are grouped into cluster batches, and each
// training step writes the batch's adjacency blocks and the updated weights
// to crossbars, runs aggregation + combination, and backpropagates. The
// HardwareModel decides what the crossbars actually return. The epoch loop,
// the effective-weight cache and the hardware hooks live in nn/train_loop;
// this adapter supplies the cluster batches and their adjacency stream.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "nn/train_loop.hpp"
#include "models/gnn/model.hpp"
#include "graph/dataset.hpp"

namespace fare {

/// Everything a Trainer derives from its dataset: the partition's quality
/// report and the fixed cluster batches with their features, labels, split
/// masks, ideal views, adjacency bits and partition hints. Immutable once
/// built, so one set serves any number of trainers on any threads.
struct GnnBatchSet {
    struct Batch {
        BatchGraphView ideal_view;
        Matrix features;
        std::vector<int> labels;
        std::vector<bool> train_mask, val_mask, test_mask;
    };
    std::vector<Batch> batches;
    std::vector<BitMatrix> adjacency;          ///< ideal adjacency bits per batch
    std::vector<std::vector<int>> node_parts;  ///< per-batch node -> partition
    PartitionQuality partition_quality;
    std::size_t num_features = 0;
    int num_classes = 0;
};

/// Partition `dataset` once and form its cluster batches. Reads only
/// `config`'s seed, partitioner, num_partitions and partitions_per_batch;
/// throws InvalidArgument if a batch would need more partitions than exist.
std::shared_ptr<const GnnBatchSet> build_gnn_batches(const Dataset& dataset,
                                                     const TrainConfig& config);

class Trainer final : public TrainLoop {
public:
    /// `hardware` may be null => ideal (fault-free) hardware. Not owned.
    Trainer(const Dataset& dataset, const TrainConfig& config,
            HardwareModel* hardware = nullptr);
    /// Train over a batch set built by build_gnn_batches with the same
    /// partitioning fields of `config` (e.g. shared through the family's
    /// cache, see models/gnn/gnn_family.cpp).
    Trainer(std::shared_ptr<const GnnBatchSet> data, const TrainConfig& config,
            HardwareModel* hardware = nullptr);

    Model& model() { return *model_; }
    std::size_t num_batches() const override { return data_->batches.size(); }
    /// Ideal adjacency bits per batch (exposed for hardware preprocessing
    /// inspection in tests/examples).
    const std::vector<BitMatrix>& batch_adjacency() const { return data_->adjacency; }

private:
    std::vector<Param*> params() override { return model_->params(); }
    /// Partition hints, then the batches' ideal adjacency: FARe computes its
    /// fault-aware mapping Pi here.
    void preprocess(HardwareModel& hardware) override;
    LossResult train_batch(std::size_t batch, MetricAccumulator& metrics) override;
    void evaluate(Split split, MetricAccumulator& metrics) override;

    /// Effective adjacency view of a batch, cached per batch keyed on the
    /// hardware's adjacency state version: fault maps only change at fault
    /// events, so the O(n^2) bits -> CSR rebuild happens once per fault
    /// event instead of once per batch visit.
    const BatchGraphView& effective_view(std::size_t batch_idx);

    std::shared_ptr<const GnnBatchSet> data_;
    std::unique_ptr<Model> model_;

    /// Per-batch effective views, valid for adjacency stamp views_stamp_.
    std::vector<std::optional<BatchGraphView>> views_;
    std::optional<std::uint64_t> views_stamp_;
};

}  // namespace fare
