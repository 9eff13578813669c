// Model-agnostic training configuration and result types, shared by every
// model family (see nn/model_family.hpp). Extracted from the GNN trainer so
// non-graph families (e.g. the transformer blocks) report through the same
// sweep/serialization plumbing without dragging in graph layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/partitioner.hpp"

namespace fare {

/// GNN architecture selector. Lives here (not in models/gnn/) because
/// TrainConfig carries it for every cell: it doubles as the GNN family's
/// model-variant tag and is simply ignored by other families, which spell
/// their variant via WorkloadSpec::variant instead.
enum class GnnKind { kGCN, kGAT, kSAGE };
const char* gnn_kind_name(GnnKind kind);

struct TrainConfig {
    GnnKind kind = GnnKind::kGCN;   // GNN family only; others ignore it
    std::size_t hidden = 32;
    std::size_t num_layers = 2;
    float lr = 0.01f;               // Table II
    std::size_t epochs = 40;
    int num_partitions = 40;        // METIS partitions (Table II, scaled)
    int partitions_per_batch = 4;   // "Batch" in Table II
    /// Registry name of the partitioning algorithm (see
    /// graph/partitioner.hpp): "multilevel" (the METIS stand-in the paper
    /// uses), "ldg", "weighted-ldg", "fennel" or "refennel". Graph families
    /// only; sequence families have no adjacency to partition.
    std::string partitioner = "multilevel";
    std::uint64_t seed = 1;
    bool record_curve = true;       // per-epoch metrics (Fig. 4)
};

struct EpochStats {
    float train_loss = 0.0f;
    double train_accuracy = 0.0;
    double val_accuracy = 0.0;
    bool operator==(const EpochStats&) const = default;
};

struct TrainResult {
    std::vector<EpochStats> curve;
    double test_accuracy = 0.0;
    double test_macro_f1 = 0.0;
    double preprocess_seconds = 0.0;  ///< measured host mapping time
    double train_seconds = 0.0;
    /// Quality of the Cluster-GCN partitioning (computed once in the
    /// trainer constructor; deterministic, serialized with the cell).
    /// Default-initialized for families without a graph to partition.
    PartitionQuality partition_quality;
};

}  // namespace fare
