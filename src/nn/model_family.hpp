// Model-family registry: the seam that makes the sweep/cell machinery
// model-agnostic. A family is one table row: a name and the functions that
// list its workloads (registered beside the graph datasets), build their
// training configuration and paper-scale timing, and make trainers
// (nn/train_loop adapters) over a workload's data. Families are
// registry-named like schemes and partitioners: "gnn" (the paper's
// Cluster-GCN stack) and "transformer" (token-embedding + self-attention +
// MLP blocks on the same HardwareModel seam).
//
// The sim/ and reram/ types are forward-declared so nn/ stays free of their
// includes; the rows live under src/models/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "nn/train_loop.hpp"

namespace fare {

struct WorkloadSpec;
struct WorkloadTiming;

struct ModelFamily {
    /// Registry name, e.g. "gnn" or "transformer". Appears in CellSpec memo
    /// keys as `|model=<name>` for every family except "gnn" (key-inert at
    /// the default so legacy keys and disk caches stay byte-stable).
    const char* name;

    /// The workloads this family registers (each WorkloadSpec carries
    /// `family == name`).
    std::vector<WorkloadSpec> (*workloads)();

    /// Training configuration for one of this family's workloads.
    TrainConfig (*train_config)(const WorkloadSpec& workload, std::uint64_t seed);

    /// Timing-model description at paper scale (Fig. 7 plumbing).
    WorkloadTiming (*paper_scale_timing)(const WorkloadSpec& workload);

    /// Build `workload`'s data once and return a factory of trainers over
    /// it, all configured by `train_config`. A family may share that data
    /// with other calls whose inputs are equal (see
    /// workload_artefact_counts). run_scheme and run_deployment
    /// (fare/fare_trainer.hpp) train and deploy over the factory.
    TrainerFactory (*make_trainers)(const WorkloadSpec& workload,
                                    const TrainConfig& train_config);
};

/// The rows, defined beside each family's trainer under src/models/.
extern const ModelFamily kGnnFamily;
extern const ModelFamily kTransformerFamily;

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
