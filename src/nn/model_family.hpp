// Model-family registry: the seam that makes the sweep/cell machinery
// model-agnostic. A family owns a set of workloads (registered beside the
// graph datasets), knows how to build their training configuration, and
// makes trainers (nn/train_loop adapters) over a workload's data; train and
// deploy under a fault scenario are written once, on top of that hook.
// Families are registry-named like schemes and partitioners: "gnn" (the
// paper's Cluster-GCN stack) and "transformer" (token-embedding +
// self-attention + MLP blocks on the same HardwareModel seam).
//
// The sim/ and fare/ types are forward-declared so nn/ stays free of their
// includes; implementations live under src/models/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "nn/train_loop.hpp"

namespace fare {

struct WorkloadSpec;
struct FaultScenario;
struct HardwareOverrides;
struct SchemeRunResult;
struct DeploymentResult;
struct WorkloadTiming;
enum class Scheme;

class ModelFamily {
public:
    virtual ~ModelFamily() = default;

    /// Registry name, e.g. "gnn" or "transformer". Appears in CellSpec memo
    /// keys as `|model=<name>` for every family except "gnn" (key-inert at
    /// the default so legacy keys and disk caches stay byte-stable).
    virtual std::string name() const = 0;

    /// The workloads this family registers (each WorkloadSpec carries
    /// `family == name()`).
    virtual std::vector<WorkloadSpec> workloads() const = 0;

    /// Training configuration for one of this family's workloads.
    virtual TrainConfig train_config(const WorkloadSpec& workload,
                                     std::uint64_t seed) const = 0;

    /// Timing-model description at paper scale (Fig. 7 plumbing).
    virtual WorkloadTiming paper_scale_timing(const WorkloadSpec& workload) const = 0;

    /// Build `workload`'s data once and return a factory of trainers over
    /// it, all configured by `train_config`. A family may share that data
    /// with other calls whose inputs are equal (see
    /// workload_artefact_counts).
    virtual TrainerFactory make_trainers(const WorkloadSpec& workload,
                                         const TrainConfig& train_config) const = 0;

    /// Train `workload` from scratch under `scheme` on the (possibly faulty)
    /// simulated hardware and report the scheme-level diagnostics.
    SchemeRunResult run_train(const WorkloadSpec& workload, Scheme scheme,
                              const TrainConfig& train_config,
                              const FaultScenario& scenario,
                              const HardwareOverrides& hw_overrides,
                              std::uint64_t hw_seed) const;

    /// Train on ideal hardware, then deploy the weights onto the faulty chip
    /// under `scheme` and evaluate there (CellMode::kDeploy).
    DeploymentResult run_deploy(const WorkloadSpec& workload, Scheme scheme,
                                const TrainConfig& train_config,
                                const FaultScenario& scenario,
                                const HardwareOverrides& hw_overrides,
                                std::uint64_t hw_seed) const;
};

/// Workload artefacts shared across cells in this process (the GNN
/// family's cluster batch sets, cached by make_trainers): sets built, and
/// make_trainers calls served by a set already built or being built.
struct WorkloadArtefactCounts {
    std::uint64_t built = 0;
    std::uint64_t reused = 0;
};
WorkloadArtefactCounts workload_artefact_counts();

/// All registered families, in registration order ("gnn" first).
const std::vector<const ModelFamily*>& registered_model_families();

/// Look up a family by registry name. Throws on miss; CLI-facing code should
/// prefer try_find_model_family.
const ModelFamily& find_model_family(const std::string& name);

/// Structured-error lookup: a miss returns an Expected whose message lists
/// the registered family names.
Expected<const ModelFamily*> try_find_model_family(const std::string& name);

}  // namespace fare
