#include "sim/registry.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/error.hpp"
#include "graph/generators.hpp"
#include "nn/model_family.hpp"

namespace fare {

/// The paper trains 100 epochs; our scaled datasets converge well before 40,
/// which keeps full figure sweeps in CPU-minutes. FARE_EPOCHS overrides
/// (e.g. FARE_EPOCHS=100).
std::size_t default_experiment_epochs() {
    return env_positive_integer("FARE_EPOCHS").value_or(40);
}

std::string WorkloadSpec::model_name() const {
    return family == "gnn" ? gnn_kind_name(kind) : variant;
}

Dataset WorkloadSpec::make_dataset(std::uint64_t seed) const {
    if (family != "gnn")
        throw InvalidArgument("workload family '" + family +
                              "' has no graph dataset; its ModelFamily builds "
                              "the workload data internally");
    if (dataset == "PPI") return make_ppi(seed);
    if (dataset == "Reddit") return make_reddit(seed);
    if (dataset == "Amazon2M") return make_amazon2m(seed);
    if (dataset == "Ogbl") return make_ogbl(seed);
    throw InvalidArgument("unknown dataset: '" + dataset +
                          "' — registered combinations:\n" + workload_usage());
}

TrainConfig WorkloadSpec::train_config(std::uint64_t seed) const {
    return find_model_family(family).train_config(*this, seed);
}

WorkloadTiming WorkloadSpec::paper_scale_timing() const {
    return find_model_family(family).paper_scale_timing(*this);
}

std::string WorkloadSpec::label() const {
    return dataset + " (" + model_name() + ")";
}

namespace {

WorkloadSpec gnn_workload(const char* dataset, GnnKind kind) {
    WorkloadSpec w;
    w.dataset = dataset;
    w.kind = kind;
    return w;
}

}  // namespace

const std::vector<WorkloadSpec>& fig5_workloads() {
    static const std::vector<WorkloadSpec> workloads = {
        gnn_workload("PPI", GnnKind::kGCN),
        gnn_workload("PPI", GnnKind::kGAT),
        gnn_workload("Reddit", GnnKind::kGCN),
        gnn_workload("Ogbl", GnnKind::kSAGE),
        gnn_workload("Amazon2M", GnnKind::kGCN),
        gnn_workload("Amazon2M", GnnKind::kSAGE),
    };
    return workloads;
}

const std::vector<WorkloadSpec>& fig6_workloads() {
    static const std::vector<WorkloadSpec> workloads = {
        gnn_workload("PPI", GnnKind::kGAT),
        gnn_workload("Reddit", GnnKind::kGCN),
        gnn_workload("Amazon2M", GnnKind::kSAGE),
    };
    return workloads;
}

const std::vector<WorkloadSpec>& fig7_workloads() {
    static const std::vector<WorkloadSpec> workloads = {
        gnn_workload("Ogbl", GnnKind::kSAGE),
        gnn_workload("Reddit", GnnKind::kGCN),
        gnn_workload("PPI", GnnKind::kGAT),
        gnn_workload("Amazon2M", GnnKind::kGCN),
    };
    return workloads;
}

const std::vector<Scheme>& figure_schemes() {
    static const std::vector<Scheme> schemes = {
        Scheme::kFaultFree, Scheme::kFaultUnaware, Scheme::kNeuronReorder,
        Scheme::kClippingOnly, Scheme::kFARe};
    return schemes;
}

WorkloadSpec find_workload(const std::string& dataset, GnnKind kind) {
    auto result = try_find_workload(dataset, kind);
    if (!result) throw InvalidArgument(result.error());
    return std::move(result).value();
}

Expected<WorkloadSpec> try_find_workload(const std::string& dataset,
                                         GnnKind kind) {
    for (const auto& w : fig5_workloads())
        if (w.dataset == dataset && w.kind == kind) return w;
    return Expected<WorkloadSpec>::failure(
        "unknown workload: " + dataset + " (" + gnn_kind_name(kind) +
        ") — registered combinations:\n" + workload_usage());
}

Expected<WorkloadSpec> try_find_workload(const std::string& family,
                                         const std::string& dataset) {
    auto fam = try_find_model_family(family);
    if (!fam) return Expected<WorkloadSpec>::failure(fam.error());
    for (const auto& w : fam.value()->workloads())
        if (w.dataset == dataset) return w;
    return Expected<WorkloadSpec>::failure(
        "unknown workload: " + dataset + " in model family '" + family +
        "' — registered combinations:\n" + workload_usage());
}

WorkloadSpec find_workload(const std::string& family, const std::string& dataset) {
    auto result = try_find_workload(family, dataset);
    if (!result) throw InvalidArgument(result.error());
    return std::move(result).value();
}

Expected<GnnKind> parse_gnn_kind(const std::string& name) {
    std::string upper = name;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    if (upper == "GCN") return GnnKind::kGCN;
    if (upper == "GAT") return GnnKind::kGAT;
    if (upper == "SAGE" || upper == "GRAPHSAGE") return GnnKind::kSAGE;
    return Expected<GnnKind>::failure("unknown GNN model: '" + name +
                                      "' (expected GCN | GAT | SAGE)");
}

std::string workload_usage() {
    std::ostringstream os;
    for (const ModelFamily* fam : registered_model_families())
        for (const auto& w : fam->workloads())
            os << "  " << w.dataset << ' ' << w.model_name() << "  [" << fam->name
               << "]\n";
    return os.str();
}

}  // namespace fare
