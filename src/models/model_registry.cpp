// Model-family registry implementation (interface: nn/model_family.hpp).
// Registration is a static list, mirroring the partitioner registry: adding
// a family means adding one entry here. The family-independent train and
// deploy entry points live here too, over each family's make_trainers().
#include "nn/model_family.hpp"

#include <sstream>

#include "fare/fare_trainer.hpp"
#include "models/gnn/gnn_family.hpp"
#include "models/transformer/transformer_family.hpp"
#include "sim/registry.hpp"

namespace fare {

const std::vector<const ModelFamily*>& registered_model_families() {
    static const GnnFamily gnn;
    static const TransformerFamily transformer;
    static const std::vector<const ModelFamily*> families = {&gnn, &transformer};
    return families;
}

Expected<const ModelFamily*> try_find_model_family(const std::string& name) {
    for (const ModelFamily* fam : registered_model_families())
        if (fam->name() == name) return fam;
    std::ostringstream os;
    os << "unknown model family: '" << name << "' — registered families:";
    for (const ModelFamily* fam : registered_model_families())
        os << ' ' << fam->name();
    return Expected<const ModelFamily*>::failure(os.str());
}

const ModelFamily& find_model_family(const std::string& name) {
    auto result = try_find_model_family(name);
    if (!result) throw InvalidArgument(result.error());
    return *result.value();
}

SchemeRunResult ModelFamily::run_train(const WorkloadSpec& workload, Scheme scheme,
                                       const TrainConfig& train_config,
                                       const FaultScenario& scenario,
                                       const HardwareOverrides& hw_overrides,
                                       std::uint64_t hw_seed) const {
    return run_scheme(make_trainers(workload, train_config), scheme, train_config,
                      scenario, hw_overrides, hw_seed);
}

DeploymentResult ModelFamily::run_deploy(const WorkloadSpec& workload, Scheme scheme,
                                         const TrainConfig& train_config,
                                         const FaultScenario& scenario,
                                         const HardwareOverrides& hw_overrides,
                                         std::uint64_t hw_seed) const {
    return run_deployment(make_trainers(workload, train_config), scheme, train_config,
                          scenario, hw_overrides, hw_seed);
}

}  // namespace fare
