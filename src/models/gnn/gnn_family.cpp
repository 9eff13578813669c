#include "models/gnn/gnn_family.hpp"

#include "models/gnn/trainer.hpp"
#include "sim/registry.hpp"

namespace fare {

std::vector<WorkloadSpec> GnnFamily::workloads() const { return fig5_workloads(); }

TrainConfig GnnFamily::train_config(const WorkloadSpec& workload,
                                    std::uint64_t seed) const {
    // WorkloadSpec::train_config handles the "gnn" family inline (it only
    // dispatches here for other families), so this cannot recurse.
    return workload.train_config(seed);
}

WorkloadTiming GnnFamily::paper_scale_timing(const WorkloadSpec& workload) const {
    return workload.paper_scale_timing();
}

TrainerFactory GnnFamily::make_trainers(const WorkloadSpec& workload,
                                        const TrainConfig& train_config) const {
    auto data = std::make_shared<const Dataset>(workload.make_dataset(train_config.seed));
    return [data, train_config](HardwareModel* hardware) {
        return std::make_unique<Trainer>(*data, train_config, hardware);
    };
}

}  // namespace fare
