#include "fare/fare_trainer.hpp"

namespace fare {

void harvest_scheme_diagnostics(HardwareModel* hardware, SchemeRunResult& out) {
    if (auto* faulty = dynamic_cast<FaultyHardware*>(hardware)) {
        out.total_mapping_cost = faulty->total_mapping_cost();
        out.bist_scans = faulty->bist_scans();
        out.wear_faults = faulty->wear_faults();
        out.online = faulty->online_stats();
        out.off_tile_block_fraction = faulty->off_tile_block_fraction();
        out.inter_tile_seconds = faulty->inter_tile_seconds();
    }
}

SchemeRunResult run_scheme(const TrainerFactory& make_trainer, Scheme scheme,
                           const TrainConfig& train_config,
                           const FaultScenario& scenario,
                           const HardwareOverrides& hw_overrides,
                           std::uint64_t hw_seed) {
    SchemeRunResult result;
    result.scheme = scheme;
    const auto hardware = make_hardware(
        scheme, to_hardware_config(scenario, hw_overrides, hw_seed, train_config.epochs));
    result.train = make_trainer(hardware.get())->run();
    harvest_scheme_diagnostics(hardware.get(), result);
    return result;
}

DeploymentResult run_deployment(const TrainerFactory& make_trainer, Scheme scheme,
                                const TrainConfig& train_config,
                                const FaultScenario& scenario,
                                const HardwareOverrides& hw_overrides,
                                std::uint64_t hw_seed) {
    DeploymentResult result;
    // Train on ideal hardware.
    IdealQuantizedHardware ideal;
    const auto host = make_trainer(&ideal);
    result.trained_accuracy = host->run().test_accuracy;

    // Deploy the trained weights onto the faulty chip under `scheme`.
    const auto hardware = make_hardware(
        scheme, to_hardware_config(scenario, hw_overrides, hw_seed, train_config.epochs));
    const auto edge = make_trainer(hardware.get());
    edge->import_params(host->export_params());
    edge->prepare_hardware();
    result.deployed_accuracy = edge->evaluate_test_accuracy();
    return result;
}

}  // namespace fare
