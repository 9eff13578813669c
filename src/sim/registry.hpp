// Registry of the paper's evaluation workloads (Table II), scaled down to
// the synthetic stand-ins of graph/generators.hpp: each entry binds a
// dataset generator to the GNN model the paper trains on it, the mini-batch
// configuration, and the timing-model workload description used by Fig. 7.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "nn/train_types.hpp"
#include "graph/dataset.hpp"
#include "reram/timing_model.hpp"

namespace fare {

struct WorkloadSpec {
    std::string dataset;  ///< "PPI", "Reddit", "Amazon2M", "Ogbl", "SeqCls"
    GnnKind kind = GnnKind::kGCN;  ///< model variant for the "gnn" family
    /// Registry name of the model family that owns this workload (see
    /// nn/model_family.hpp). The default "gnn" is key-inert: legacy memo
    /// keys, disk caches and derived seeds stay byte-stable.
    std::string family = "gnn";
    /// Family-specific model-variant tag for non-GNN families (e.g.
    /// "Transformer"); GNN workloads spell their variant via `kind`.
    std::string variant;

    /// Variant name used in labels, memo keys and serialized records:
    /// gnn_kind_name(kind) for the GNN family, `variant` otherwise.
    std::string model_name() const;

    /// Instantiate the (synthetic) graph dataset. Only valid for the "gnn"
    /// family — other families build their own workload data internally and
    /// this throws for them.
    Dataset make_dataset(std::uint64_t seed = 1) const;

    /// Training configuration (for the GNN family, Table II
    /// hyperparameters, scaled): the family row's train_config.
    TrainConfig train_config(std::uint64_t seed = 1) const;

    /// Timing-model description for Fig. 7 — uses the *paper-scale* batch
    /// counts and hidden sizes so the normalized-time ratios reflect the
    /// workloads the paper timed, not our scaled-down replicas: the family
    /// row's paper_scale_timing.
    WorkloadTiming paper_scale_timing() const;

    std::string label() const;  ///< e.g. "Reddit (GCN)", "SeqCls (Transformer)"
};

/// The six dataset/model combinations of Fig. 5, in the paper's order:
/// PPI (GCN), PPI (GAT), Reddit (GCN), Ogbl (SAGE), Amazon2M (GCN),
/// Amazon2M (SAGE).
const std::vector<WorkloadSpec>& fig5_workloads();

/// The three combinations of Fig. 6: PPI (GAT), Reddit (GCN), Amazon2M (SAGE).
const std::vector<WorkloadSpec>& fig6_workloads();

/// The four combinations of Fig. 7: Ogbl (SAGE), Reddit (GCN), PPI (GAT),
/// Amazon2M (GCN).
const std::vector<WorkloadSpec>& fig7_workloads();

/// The scheme order used in Figs. 4-7.
const std::vector<Scheme>& figure_schemes();

/// Look up one workload by names ("Reddit", GnnKind::kGCN). Throws on miss;
/// CLI-facing code should prefer try_find_workload.
WorkloadSpec find_workload(const std::string& dataset, GnnKind kind);

/// Structured-error lookup: a miss returns an Expected carrying a message
/// that lists the registered combinations, ready for a usage printout.
Expected<WorkloadSpec> try_find_workload(const std::string& dataset, GnnKind kind);

/// Family-aware lookup: find `dataset` among the workloads registered by
/// model family `family` ("gnn", "transformer", ...). For the GNN family the
/// dataset name alone is ambiguous (one dataset, several GnnKinds) and the
/// first registered combination wins; use the GnnKind overload to pick.
Expected<WorkloadSpec> try_find_workload(const std::string& family,
                                         const std::string& dataset);
WorkloadSpec find_workload(const std::string& family, const std::string& dataset);

/// Parse a model name ("GCN" | "GAT" | "SAGE", case-insensitive).
Expected<GnnKind> parse_gnn_kind(const std::string& name);

/// One line per registered dataset/model combination across every model
/// family, for usage messages.
std::string workload_usage();

/// Global default epoch count for experiment runs (honours the FARE_EPOCHS
/// environment override; throws InvalidArgument when it is set to anything
/// but a positive integer). Shared by every model family's train_config.
std::size_t default_experiment_epochs();

}  // namespace fare
