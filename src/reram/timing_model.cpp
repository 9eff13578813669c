#include "reram/timing_model.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/error.hpp"

namespace fare {

const std::vector<Scheme>& all_schemes() {
    static const std::vector<Scheme> kSchemes = [] {
        std::vector<Scheme> out;
        for (std::size_t i = 0; i < std::size(kSchemeTraits); ++i)
            out.push_back(static_cast<Scheme>(i));
        return out;
    }();
    return kSchemes;
}

Expected<Scheme> parse_scheme(const std::string& name) {
    const auto normalise = [](std::string s) {
        std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
            return c == '_' || c == ' ' ? '-' : static_cast<char>(std::tolower(c));
        });
        return s;
    };
    const std::string lower = normalise(name);
    std::string names;
    for (const Scheme s : all_schemes()) {
        const SchemeTraits& t = scheme_traits(s);
        if (lower == normalise(t.name)) return s;
        for (const char* alias : t.aliases)
            if (alias != nullptr && lower == alias) return s;
        names += std::string(names.empty() ? "" : " | ") + t.name;
    }
    return Expected<Scheme>::failure("unknown scheme: '" + name + "' (expected " +
                                     names + ")");
}

TimingModel::TimingModel(const TimingConfig& config) : config_(config) {
    FARE_CHECK(config.tile.array_clock_hz > 0, "array clock must be positive");
    FARE_CHECK(config.host_ops_per_sec > 0, "host rate must be positive");
}

double TimingModel::crossbar_mvm_latency_s() const {
    // Inputs stream bit-serially through 1-bit DACs: one array cycle per
    // input bit; all crossbars of a tile operate in parallel.
    return static_cast<double>(config_.input_bits) / config_.tile.array_clock_hz;
}

double TimingModel::write_latency_s(std::size_t rows) const {
    return static_cast<double>(rows) / config_.tile.array_clock_hz;
}

double TimingModel::host_matching_latency_s(std::size_t n, double f_per_row) const {
    // b-Suitor visits each candidate edge a constant number of times; the
    // relevant edges are (row, fault-row) pairs with non-zero mismatch, about
    // n * f_per_row, plus the O(n log n) queue maintenance.
    const double edges = static_cast<double>(n) * std::max(f_per_row, 1.0);
    const double ops = 8.0 * edges + 4.0 * static_cast<double>(n) *
                                         std::log2(static_cast<double>(n) + 2.0);
    return ops / config_.host_ops_per_sec;
}

double TimingModel::march_latency_s(std::uint64_t cell_ops) const {
    // A march pass programs/reads whole rows at a time: cell_ops spread over
    // the column width, one array cycle per row operation.
    const double row_ops = static_cast<double>(cell_ops) /
                           static_cast<double>(config_.tile.crossbar_cols);
    return row_ops / config_.tile.array_clock_hz;
}

double TimingModel::readback_latency_s(std::size_t crossbars) const {
    // One signature MVM wave per crossbar plus a host compare of the
    // column-sum vector against the stored golden value.
    const double host_ops = static_cast<double>(config_.tile.crossbar_cols);
    return static_cast<double>(crossbars) *
           (crossbar_mvm_latency_s() + host_ops / config_.host_ops_per_sec);
}

double TimingModel::reprogram_latency_s(std::uint64_t pulses) const {
    return static_cast<double>(pulses) / config_.tile.array_clock_hz;
}

double TimingModel::noc_transfer_latency_s(std::size_t blocks) const {
    if (blocks == 0) return 0.0;
    // Each off-home block ships one crossbar-row vector of 16-bit partial
    // sums per mapping use: rows x 2 bytes, plus the fixed routing latency.
    const double bytes_per_block =
        static_cast<double>(config_.tile.crossbar_rows) * 2.0;
    return static_cast<double>(blocks) *
           (config_.noc_hop_latency_s + bytes_per_block / config_.noc_bytes_per_sec);
}

double TimingModel::stage_delay_s(const WorkloadTiming& w) const {
    const auto xb_rows = static_cast<std::size_t>(config_.tile.crossbar_rows);
    const auto weights_per_row =
        static_cast<std::size_t>(config_.tile.crossbar_cols) / 8;  // 8 cells/weight

    // Aggregation: (B x B) adjacency times (B x F) features. The B-wide input
    // enters bit-serially; ceil(B/128) crossbar row-groups work in parallel
    // inside a tile, so the wavefront is one MVM wave per feature column
    // group of the (B x F) operand.
    const std::size_t agg_waves =
        (w.features + weights_per_row - 1) / weights_per_row;
    const double t_agg = static_cast<double>(agg_waves) * crossbar_mvm_latency_s();

    // Combination: (B x F) times (F x H): one wave per 128-row input group
    // per output group of H.
    const std::size_t comb_in_groups = (w.features + xb_rows - 1) / xb_rows;
    const std::size_t comb_out_groups =
        (w.hidden + weights_per_row - 1) / weights_per_row;
    const double t_comb = static_cast<double>(comb_in_groups * comb_out_groups) *
                          crossbar_mvm_latency_s();

    // Weight update: rewrite all weight rows in place.
    const double t_update = write_latency_s(w.weight_rows_total);

    return std::max({t_agg, t_comb, t_update});
}

std::size_t TimingModel::num_stages(const WorkloadTiming& w, bool with_clipping) const {
    // Per layer: aggregation + combination; plus loss/gradient stage and
    // weight-update stage; clipping adds one comparator/mux stage (§V-E).
    return 2 * w.layers + 2 + (with_clipping ? 1 : 0);
}

ExecutionBreakdown TimingModel::training_time(Scheme scheme,
                                              const WorkloadTiming& w) const {
    ExecutionBreakdown out;
    const SchemeTraits& traits = scheme_traits(scheme);
    const double stage = stage_delay_s(w);
    const std::size_t stages = num_stages(w, traits.clips);
    const std::size_t total_batches = w.batches_per_epoch * w.epochs;

    out.pipeline =
        static_cast<double>(total_batches + stages - 1) * stage;

    if (traits.spare_columns) {
        // Column-repair indirection sits in the sense path of every wave.
        out.pipeline *= 1.10;
    }

    if (traits.mapping == MappingPolicy::kNeuronReorder) {
        // Per-batch stall: re-match the reorder units against the fault map
        // on the just-updated weights, then reprogram the physically moved
        // rows. The matching instance has one vertex per reorder unit
        // (dimension hidden; each unit spans 8 cells, which is the per-edge
        // mismatch-evaluation work folded into f_per_row), and the rewrite
        // touches every weight row (paper §V-E: the pipeline stalls after
        // every batch).
        const double t_match = host_matching_latency_s(w.hidden, 8.0);
        const double t_rewrite = write_latency_s(w.weight_rows_total);
        out.stalls = static_cast<double>(total_batches) * (t_match + t_rewrite);
    }

    if (traits.mapping == MappingPolicy::kFaultAware || traits.online) {
        // Per-epoch BIST refresh for post-deployment faults (~0.13%/epoch).
        // The online schemes' rotating partial march replaces the per-epoch
        // full scan; its steady-state duty cycle is the same order. The
        // *measured* march/readback/reprogram time of a concrete run is
        // charged separately through SchemeRunResult::online.
        out.bist = config_.bist_epoch_overhead * out.pipeline;
    }

    if (traits.mapping == MappingPolicy::kFaultAware) {
        // Preprocessing on the critical path: only the FIRST batch's mapping
        // — subsequent batches are mapped on the host while the pipeline
        // executes the current one (paper §IV-A: "generates the mapping for
        // the next batch parallelly on the host device"). Per block, a cheap
        // O(m) fault-count preselection prunes the pool to a handful of
        // candidate crossbars that get full b-Suitor row matching.
        const auto xb = static_cast<std::size_t>(config_.tile.crossbar_rows);
        const std::size_t grid = (w.avg_batch_nodes + xb - 1) / xb;
        const std::size_t blocks_per_batch = grid * grid;
        const std::size_t candidates_per_block = 4;
        const double preselect = 96.0 / config_.host_ops_per_sec;  // count scan
        const double per_pair = host_matching_latency_s(xb, 8.0);
        out.preprocess =
            static_cast<double>(blocks_per_batch) *
            (preselect + static_cast<double>(candidates_per_block) * per_pair);
    }
    return out;
}

double TimingModel::normalized_time(Scheme scheme, const WorkloadTiming& w) const {
    const double base = training_time(Scheme::kFaultFree, w).total();
    return training_time(scheme, w).total() / base;
}

EnergyBreakdown TimingModel::training_energy(Scheme scheme,
                                             const WorkloadTiming& w) const {
    EnergyBreakdown out;
    const SchemeTraits& traits = scheme_traits(scheme);
    const auto xb_rows = static_cast<std::size_t>(config_.tile.crossbar_rows);
    const auto weights_per_row =
        static_cast<std::size_t>(config_.tile.crossbar_cols) / 8;
    const std::size_t total_batches = w.batches_per_epoch * w.epochs;

    // Compute: aggregation + combination MVM waves per batch (see
    // stage_delay_s for the wavefront counts), ADC samples per wave.
    const std::size_t agg_waves = (w.features + weights_per_row - 1) / weights_per_row;
    const std::size_t comb_waves = ((w.features + xb_rows - 1) / xb_rows) *
                                   ((w.hidden + weights_per_row - 1) / weights_per_row);
    const double waves_per_batch =
        static_cast<double>((agg_waves + comb_waves) * w.layers);
    const double adc_per_wave = static_cast<double>(config_.tile.num_adcs);
    out.compute = static_cast<double>(total_batches) * waves_per_batch *
                  (config_.mvm_energy_per_wave_j +
                   adc_per_wave * config_.adc_energy_per_sample_j);

    // Writes: adjacency blocks streamed per batch + weight rows updated.
    const std::size_t grid = (w.avg_batch_nodes + xb_rows - 1) / xb_rows;
    const double adj_cells_per_batch =
        static_cast<double>(grid * grid) * static_cast<double>(xb_rows) *
        static_cast<double>(config_.tile.crossbar_cols);
    const double weight_cells_per_batch =
        static_cast<double>(w.weight_rows_total) *
        static_cast<double>(config_.tile.crossbar_cols);
    out.writes = static_cast<double>(total_batches) *
                 (adj_cells_per_batch + weight_cells_per_batch) *
                 config_.write_energy_per_cell_j;

    // Host energy: mapping (FARe, first batch on the critical path but every
    // batch is mapped somewhere) or per-batch reorder (NR).
    const double per_pair_ops =
        host_matching_latency_s(xb_rows, 8.0) * config_.host_ops_per_sec;
    if (traits.mapping == MappingPolicy::kFaultAware) {
        const double pairs =
            static_cast<double>(w.batches_per_epoch) *
            static_cast<double>(grid * grid) * 4.0;  // pruned candidates
        out.host = pairs * per_pair_ops * config_.host_energy_per_op_j;
        out.overhead = config_.bist_epoch_overhead *
                       training_time(scheme, w).pipeline / 1.0 *
                       config_.tile.power_w;  // BIST runtime at tile power
    } else if (traits.mapping == MappingPolicy::kNeuronReorder) {
        const double match_ops = host_matching_latency_s(w.hidden, 8.0) *
                                 config_.host_ops_per_sec;
        out.host = static_cast<double>(total_batches) * match_ops *
                   config_.host_energy_per_op_j;
        // Reorder rewrites every weight row each batch — extra write energy.
        out.writes += static_cast<double>(total_batches) * weight_cells_per_batch *
                      config_.write_energy_per_cell_j;
    } else if (traits.spare_columns) {
        // Spare columns are active in every wave: compute/write energy scale
        // with the provisioned redundancy.
        out.compute *= 1.0 + config_.spare_column_fraction;
        out.writes *= 1.0 + config_.spare_column_fraction;
    }
    return out;
}

double TimingModel::normalized_energy(Scheme scheme, const WorkloadTiming& w) const {
    const double base = training_energy(Scheme::kFaultFree, w).total();
    return training_energy(scheme, w).total() / base;
}

}  // namespace fare
