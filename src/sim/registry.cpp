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
    if (family != "gnn") return find_model_family(family).train_config(*this, seed);
    TrainConfig tc;
    tc.kind = kind;
    tc.hidden = 32;
    tc.num_layers = 2;
    tc.lr = 0.01f;  // Table II
    tc.epochs = default_experiment_epochs();
    tc.seed = seed;
    tc.record_curve = false;
    // Table II scaled ~100x: partitions / batch keep the same proportions
    // (e.g. Reddit 1500 partitions, batch 10 -> 48 partitions, batch 4).
    if (dataset == "PPI") {
        tc.num_partitions = 40;
        tc.partitions_per_batch = 4;
    } else if (dataset == "Reddit") {
        tc.num_partitions = 48;
        tc.partitions_per_batch = 4;
    } else if (dataset == "Amazon2M") {
        tc.num_partitions = 50;
        tc.partitions_per_batch = 5;
    } else {  // Ogbl
        tc.num_partitions = 48;
        tc.partitions_per_batch = 4;
    }
    return tc;
}

WorkloadTiming WorkloadSpec::paper_scale_timing() const {
    if (family != "gnn") return find_model_family(family).paper_scale_timing(*this);
    // Paper-scale pipeline inputs: N = partitions / batch-size subgraphs per
    // epoch (Table II), hidden width 1024 (the paper's NR discussion), 100
    // epochs.
    WorkloadTiming w;
    w.epochs = 100;
    w.hidden = 1024;
    w.layers = 2;
    w.features = 602;  // representative of the real datasets' feature widths
    if (dataset == "PPI") {
        w.batches_per_epoch = 250 / 5;
        w.avg_batch_nodes = 56944 / 250 * 5;
        w.features = 50;
    } else if (dataset == "Reddit") {
        w.batches_per_epoch = 1500 / 10;
        w.avg_batch_nodes = 232965 / 1500 * 10;
        w.features = 602;
    } else if (dataset == "Amazon2M") {
        w.batches_per_epoch = 10000 / 20;
        w.avg_batch_nodes = 2449029 / 10000 * 20;
        w.features = 100;
    } else {  // Ogbl
        w.batches_per_epoch = 15000 / 16;
        w.avg_batch_nodes = 2927963 / 15000 * 16;
        w.features = 128;
    }
    // Physical weight rows: layer1 (features x hidden) + layer2
    // (hidden x classes), with GAT/SAGE carrying extra parameter rows.
    const std::size_t base_rows = w.features + w.hidden;
    const std::size_t factor = (kind == GnnKind::kSAGE) ? 2 : 1;
    w.weight_rows_total = base_rows * factor + (kind == GnnKind::kGAT ? 2 : 0);
    return w;
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
            os << "  " << w.dataset << ' ' << w.model_name() << "  [" << fam->name()
               << "]\n";
    return os.str();
}

}  // namespace fare
