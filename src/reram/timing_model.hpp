// Analytical timing / energy / area model — the repo's NeuroSim stand-in.
//
// Reproduces the first-order quantities Fig. 7 depends on:
//   * pipelined training time  T = (N + S - 1) * stage_delay   (paper §V-E)
//     with N pipeline inputs (subgraph batches) and S stages;
//   * weight clipping adds one pipeline stage (comparator + mux), negligible
//     because N >> S;
//   * FARe adds one-time host preprocessing (the bipartite mapping) plus a
//     per-epoch BIST scan (~0.13% each);
//   * neuron reordering (NR) stalls the pipeline after every batch: the
//     reorder is recomputed on the *updated* weights (host matching over the
//     hidden_dim x 8-cell reorder unit) and the physically moved rows must be
//     reprogrammed before the next batch can enter.
//
// All latencies derive from Table III device parameters; host costs from an
// effective ops/s rate. Absolute values are a model; Fig. 7 reports ratios.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "reram/tile.hpp"

namespace fare {

/// Fault-mitigation scheme being timed / trained.
enum class Scheme {
    kFaultFree,      ///< ideal crossbars (quantisation only)
    kFaultUnaware,   ///< naive mapping, no mitigation
    kNeuronReorder,  ///< NR [7]: row-granularity reordering, SA0 = SA1
    kClippingOnly,   ///< weight clipping [12] alone
    kFARe,           ///< Algorithm 1 mapping + clipping (the paper)
    kRedundantCols,  ///< hardware redundancy [8]: spare columns repair faults
    kOnlineFARe,     ///< FARe mapping + online detection/correction engine
    kOnlineNaive,    ///< online detection/correction only (naive mapping)
};

/// How a scheme places adjacency blocks on the pool's crossbars.
enum class MappingPolicy {
    kIdentity,       ///< block i on crossbar i, rows unpermuted
    kNeuronReorder,  ///< NR: equal-weight row permutation, identity blocks
    kFaultAware,     ///< FARe's Algorithm 1: row matching + block assignment
};

/// Everything FaultyHardware and TimingModel decide per scheme. The defaults
/// are the fault-unaware baseline: no clipping, identity mapping, no spare
/// columns, offline.
struct SchemeTraits {
    const char* name = "";  ///< scheme_name()
    /// parse_scheme() spellings besides the name (lower case, '-' for
    /// spaces and underscores); unused slots are null.
    std::array<const char*, 2> aliases{};
    bool clips = false;  ///< clamp read-out weights to tau (§IV-B)
    MappingPolicy mapping = MappingPolicy::kIdentity;
    bool spare_columns = false;  ///< spare columns repair the worst-faulted ones
    bool online = false;         ///< runs the detection/correction engine
};

/// One row per Scheme, in enum order.
inline constexpr SchemeTraits kSchemeTraits[] = {
    {.name = "fault-free", .aliases = {"faultfree", "ideal"}},
    {.name = "fault-unaware", .aliases = {"unaware", "naive"}},
    {.name = "NR",
     .aliases = {"neuron-reorder", "neuron-reordering"},
     .mapping = MappingPolicy::kNeuronReorder},
    {.name = "Weight Clipping", .aliases = {"clipping", "clip"}, .clips = true},
    {.name = "FARe", .clips = true, .mapping = MappingPolicy::kFaultAware},
    {.name = "Redundant Columns", .aliases = {"redundant", "spare"}, .spare_columns = true},
    {.name = "Online FARe",
     .clips = true,
     .mapping = MappingPolicy::kFaultAware,
     .online = true},
    {.name = "Online Naive", .aliases = {"online"}, .online = true},
};
static_assert(std::size(kSchemeTraits) == 1 + static_cast<std::size_t>(Scheme::kOnlineNaive));

inline const SchemeTraits& scheme_traits(Scheme s) {
    return kSchemeTraits[static_cast<std::size_t>(s)];
}

inline const char* scheme_name(Scheme s) { return scheme_traits(s).name; }

/// Every scheme, in enum order — the registry view used by `fare-run --list`
/// and sweeps that want "all of them" without hand-maintaining a list.
const std::vector<Scheme>& all_schemes();

/// Schemes that run the in-training detection/correction engine
/// (reram/online_tolerance.hpp).
inline bool scheme_is_online(Scheme s) { return scheme_traits(s).online; }

/// Parse a scheme by its scheme_name() spelling or one of its aliases,
/// case-insensitive, with spaces and underscores read as '-'. A miss returns
/// a structured error listing the names.
Expected<Scheme> parse_scheme(const std::string& name);

/// Static description of one training workload (per dataset/model).
struct WorkloadTiming {
    std::size_t batches_per_epoch = 50;
    std::size_t epochs = 100;
    std::size_t avg_batch_nodes = 240;  ///< nodes per subgraph batch
    std::size_t features = 32;          ///< input feature width
    std::size_t hidden = 32;            ///< hidden width (reorder unit = hidden x 8)
    std::size_t layers = 2;
    /// Total physical weight-cell rows across all layers (rewritten by NR).
    std::size_t weight_rows_total = 64;
};

struct TimingConfig {
    TileSpec tile;
    /// Bit-serial input resolution (16-bit fixed-point activations).
    int input_bits = 16;
    /// Effective host throughput for the matching computations (ops/s).
    double host_ops_per_sec = 5e8;
    /// Fractional overhead of one BIST scan relative to an epoch (paper: 0.13%).
    double bist_epoch_overhead = 0.0013;
    /// Redundant-column repair [8]: fraction of extra crossbar columns kept
    /// as spares (area/energy overhead of the hardware baseline).
    double spare_column_fraction = 0.15;

    // NoC (inter-tile) transfer model: a block whose home tile differs from
    // the tile its crossbar landed on ships its partial aggregation results
    // across the mesh once per epoch-equivalent mapping use. First-order:
    // per-block payload = crossbar_rows x 16-bit partials.
    double noc_bytes_per_sec = 2e9;   ///< mesh link effective bandwidth
    double noc_hop_latency_s = 50e-9; ///< per-transfer fixed routing latency

    // Energy coefficients (first-order): the per-wave MVM energy is
    // calibrated against Table III — one tile at 0.34 W running a 512 us
    // pipeline stage of ~700 waves spends ~240 nJ per wave; writes and ADC
    // samples use NeuroSim-order per-op values.
    double mvm_energy_per_wave_j = 200e-9;  ///< 128x128 wave, 16-bit inputs
    double write_energy_per_cell_j = 1e-12; ///< one 2-bit cell program
    double adc_energy_per_sample_j = 2e-12;
    double host_energy_per_op_j = 10e-12;
};

/// Decomposed execution time, all in seconds.
struct ExecutionBreakdown {
    double preprocess = 0.0;  ///< host mapping before training (FARe)
    double pipeline = 0.0;    ///< (N + S - 1) * stage_delay
    double stalls = 0.0;      ///< NR per-batch reorder + reprogram stalls
    double bist = 0.0;        ///< per-epoch BIST scans
    double total() const { return preprocess + pipeline + stalls + bist; }
};

/// Decomposed training energy, all in joules.
struct EnergyBreakdown {
    double compute = 0.0;   ///< analog MVM waves + ADC conversions
    double writes = 0.0;    ///< adjacency streaming + weight updates
    double host = 0.0;      ///< mapping / reorder computations on the host
    double overhead = 0.0;  ///< BIST scans, spare-column repair energy
    double total() const { return compute + writes + host + overhead; }
};

class TimingModel {
public:
    explicit TimingModel(const TimingConfig& config = {});

    const TimingConfig& config() const { return config_; }

    /// One crossbar MVM wave: bit-serial over input_bits array cycles.
    double crossbar_mvm_latency_s() const;

    /// Programming `rows` crossbar rows (one array cycle per row).
    double write_latency_s(std::size_t rows) const;

    /// Host bipartite-matching cost for an n x n cost instance with ~f
    /// relevant fault entries per row (b-Suitor is near-linear in edges).
    double host_matching_latency_s(std::size_t n, double f_per_row) const;

    // --- Online-tolerance cost hooks (reram/online_tolerance.hpp) ---

    /// March over crossbar cells: `cell_ops` BIST cell operations, executed
    /// row-parallel across the array columns (one array cycle per row pass).
    double march_latency_s(std::uint64_t cell_ops) const;

    /// Error-bounded readback check of `crossbars` arrays: one MVM signature
    /// wave each plus the host-side compare against the digital golden value.
    double readback_latency_s(std::size_t crossbars) const;

    /// Targeted re-programming: `pulses` single-cell program pulses.
    double reprogram_latency_s(std::uint64_t pulses) const;

    /// Inter-tile NoC cost of shipping `blocks` off-home-tile partial
    /// aggregation payloads (one crossbar's worth of 16-bit partial sums
    /// each) across the mesh. Partition-aware mapping exists to shrink this.
    double noc_transfer_latency_s(std::size_t blocks) const;

    /// Delay of one pipeline stage for a workload: max over the aggregation
    /// MVM wavefront, the combination MVM wavefront and the weight update
    /// write-back.
    double stage_delay_s(const WorkloadTiming& w) const;

    /// Number of pipeline stages (aggregation + combination per layer,
    /// plus loss and weight-update stages, plus one clipping stage if used).
    std::size_t num_stages(const WorkloadTiming& w, bool with_clipping) const;

    /// End-to-end training time under a scheme.
    ExecutionBreakdown training_time(Scheme scheme, const WorkloadTiming& w) const;

    /// Convenience: time of `scheme` divided by fault-free time.
    double normalized_time(Scheme scheme, const WorkloadTiming& w) const;

    /// End-to-end training energy under a scheme (first-order model:
    /// MVM waves + ADC samples + cell writes + host computation + BIST /
    /// spare-column overheads).
    EnergyBreakdown training_energy(Scheme scheme, const WorkloadTiming& w) const;

    /// Convenience: energy of `scheme` divided by fault-free energy.
    double normalized_energy(Scheme scheme, const WorkloadTiming& w) const;

private:
    TimingConfig config_;
};

}  // namespace fare
