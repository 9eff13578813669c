// The paper's model family: Cluster-GCN style mini-batch GNN training
// (GCN / GAT / GraphSAGE) on partitioned synthetic graphs.
#pragma once

#include "nn/model_family.hpp"

namespace fare {

class GnnFamily final : public ModelFamily {
public:
    std::string name() const override { return "gnn"; }
    std::vector<WorkloadSpec> workloads() const override;
    TrainConfig train_config(const WorkloadSpec& workload,
                             std::uint64_t seed) const override;
    WorkloadTiming paper_scale_timing(const WorkloadSpec& workload) const override;
    TrainerFactory make_trainers(const WorkloadSpec& workload,
                                 const TrainConfig& train_config) const override;
};

}  // namespace fare
