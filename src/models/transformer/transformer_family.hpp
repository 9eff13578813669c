// "transformer" model family: token-embedding + self-attention + MLP blocks
// trained on the same HardwareModel / crossbar / tile mapping as the GNN
// stack, with a synthetic sequence-classification workload registered beside
// the graph datasets.
#pragma once

#include "nn/model_family.hpp"

namespace fare {

class TransformerFamily final : public ModelFamily {
public:
    std::string name() const override { return "transformer"; }
    std::vector<WorkloadSpec> workloads() const override;
    TrainConfig train_config(const WorkloadSpec& workload,
                             std::uint64_t seed) const override;
    WorkloadTiming paper_scale_timing(const WorkloadSpec& workload) const override;
    TrainerFactory make_trainers(const WorkloadSpec& workload,
                                 const TrainConfig& train_config) const override;
};

}  // namespace fare
