// High-level orchestration: train one workload under one scheme on
// simulated faulty hardware, or deploy a host-trained model onto it, and
// report the metrics the paper's figures use. Family-agnostic: the trainers
// come from a TrainerFactory (see nn/train_loop.hpp), so every model family
// shares these two runners.
#pragma once

#include "fare/baselines.hpp"
#include "fare/scenario.hpp"
#include "nn/train_loop.hpp"

namespace fare {

struct SchemeRunResult {
    Scheme scheme = Scheme::kFaultFree;
    TrainResult train;
    /// Mapping quality diagnostics (0 for fault-free).
    double total_mapping_cost = 0.0;
    std::size_t bist_scans = 0;
    /// Cells worn out by the endurance model during the run (0 unless the
    /// scenario enables wear — see FaultScenario::wear).
    std::size_t wear_faults = 0;
    /// Online detection/correction log (all-zero unless the scheme is one of
    /// the online family — see reram/online_tolerance.hpp).
    OnlineToleranceStats online;
    /// Partition-locality diagnostics (0 for fault-free / no partition
    /// hints): fraction of mapped adjacency blocks placed off their home
    /// tile, and the modelled NoC seconds that traffic cost over the run.
    double off_tile_block_fraction = 0.0;
    double inter_tile_seconds = 0.0;
};

/// Copy the scheme-level diagnostics (mapping cost, BIST scans, wear, online
/// stats, tile locality) out of `hardware` if it is a FaultyHardware; no-op
/// for ideal hardware.
void harvest_scheme_diagnostics(HardwareModel* hardware, SchemeRunResult& out);

/// Lower a FaultScenario + chip overrides into `scheme`'s hardware model
/// (seeded with `hw_seed`; kFaultFree yields the ideal quantised reference),
/// train a fresh trainer on it and harvest the scheme diagnostics.
SchemeRunResult run_scheme(const TrainerFactory& make_trainer, Scheme scheme,
                           const TrainConfig& train_config,
                           const FaultScenario& scenario,
                           const HardwareOverrides& hw_overrides,
                           std::uint64_t hw_seed);

/// Deployment scenario (extension): train on ideal hardware (e.g. in the
/// cloud), then deploy the trained weights onto a faulty edge accelerator
/// under `scheme`'s mapping and evaluate there — the inference-side
/// counterpart of the paper's training story.
struct DeploymentResult {
    double trained_accuracy = 0.0;   ///< test accuracy on ideal hardware
    double deployed_accuracy = 0.0;  ///< test accuracy on the faulty chip
};
DeploymentResult run_deployment(const TrainerFactory& make_trainer, Scheme scheme,
                                const TrainConfig& train_config,
                                const FaultScenario& scenario,
                                const HardwareOverrides& hw_overrides,
                                std::uint64_t hw_seed);

}  // namespace fare
