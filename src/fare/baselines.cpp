#include "fare/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "fare/hungarian.hpp"
#include "numeric/quantize.hpp"

namespace fare {

Matrix IdealQuantizedHardware::effective_weights(std::size_t, const Matrix& w) {
    return quantize_dequantize(w);
}

namespace {

/// Flattened mask of the bottom `fraction` of weights by |w|. Ties break on
/// flat index, so the mask is a deterministic pure function of the weights —
/// identical across threads, workers and reruns. Selecting the k smallest
/// (|w|, index) pairs picks the same set a stable sort's first k would.
std::vector<std::uint8_t> significance_prune_mask(const Matrix& w,
                                                  double fraction) {
    const std::size_t total = w.size();
    const auto k = static_cast<std::size_t>(fraction * static_cast<double>(total));
    std::vector<std::uint8_t> mask(total, 0);
    if (k == 0) return mask;
    const auto flat = w.flat();
    std::vector<std::uint32_t> order(total);
    for (std::size_t i = 0; i < total; ++i) order[i] = static_cast<std::uint32_t>(i);
    std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     order.end(), [&flat](std::uint32_t a, std::uint32_t b) {
                         const float wa = std::abs(flat[a]), wb = std::abs(flat[b]);
                         return wa < wb || (wa == wb && a < b);
                     });
    for (std::size_t i = 0; i < k; ++i) mask[order[i]] = 1;
    return mask;
}

/// (off-home-tile, with-home) block counts of one batch mapping. Host
/// blocks never appear in assignments; blocks without a partition-derived
/// home (-1) are excluded from both counts.
std::pair<std::size_t, std::size_t> off_tile_counts(const AdjacencyMapping& m,
                                                    const TilePlacement& p) {
    std::size_t off = 0, total = 0;
    for (const BlockAssignment& ba : m.assignments) {
        const int home = ba.block_index < p.block_home_tile.size()
                             ? p.block_home_tile[ba.block_index]
                             : -1;
        if (home < 0) continue;
        ++total;
        if (p.tile_of(ba.crossbar_index) != home) ++off;
    }
    return {off, total};
}

}  // namespace

FaultyHardware::FaultyHardware(Scheme scheme, const FaultyHardwareConfig& config)
    : scheme_(scheme),
      config_(config),
      accelerator_(AcceleratorConfig{.tile = {}, .num_tiles = config.hardware.num_tiles}),
      clipper_(config.hardware.clip_threshold),
      mapper_(MapperConfig{accelerator_.config().tile.crossbar_rows,
                           config.hardware.match_weights}),
      online_engine_(config.hardware.online),
      timing_(TimingConfig{.tile = accelerator_.config().tile}),
      wear_rng_(config.seed ^ 0xD15EA5EULL),
      noise_rng_(config.seed ^ 0x4015EULL) {
    FARE_CHECK(scheme != Scheme::kFaultFree,
               "use IdealQuantizedHardware for the fault-free scheme");
    FARE_CHECK(!traits().online || config.hardware.online.enabled(),
               "online scheme needs an enabled policy "
               "(OnlinePolicySpec.detect_period_batches > 0)");
    accelerator_.inject_pre_deployment_faults(
        {.density = config.faults.density,
         .sa1_fraction = config.faults.sa1_fraction,
         .cluster_shape = config.faults.cluster_shape,
         .seed = config.seed});
    if (config.faults.wear.enabled())
        wear_model_ = WearModel(accelerator_.num_crossbars(),
                                accelerator_.config().tile.crossbar_rows,
                                accelerator_.config().tile.crossbar_cols,
                                config.faults.wear, config.faults.post_sa1_fraction,
                                config.seed ^ 0x3EA4ULL);
}

void FaultyHardware::bind_params(const std::vector<Matrix*>& params) {
    params_.clear();
    const auto xb_rows = accelerator_.config().tile.crossbar_rows;
    const auto xb_cols = accelerator_.config().tile.crossbar_cols;
    const std::size_t wpx = static_cast<std::size_t>(xb_cols) / kCellsPerWeight;
    for (const Matrix* p : params) {
        ParamRegion region;
        region.rows = p->rows();
        region.cols = p->cols();
        const std::size_t grid_r = (p->rows() + xb_rows - 1) / xb_rows;
        const std::size_t grid_c = (p->cols() + wpx - 1) / wpx;
        region.range = accelerator_.allocate(grid_r * grid_c);
        params_.push_back(std::move(region));
    }
    rebuild_weight_view(/*scan=*/true);
}

std::vector<FaultMap> FaultyHardware::fault_view(CrossbarRange range, bool scan) {
    // The hardware-visible fault information comes from BIST scans of the
    // allocated crossbars, exactly as FARe's flow prescribes (§IV-A). The
    // march detects exactly the true map, so reading it instead equals a
    // rescan minus its charges.
    const auto spares = static_cast<std::size_t>(
        config_.hardware.spare_column_fraction * accelerator_.config().tile.crossbar_cols);
    std::vector<FaultMap> maps;
    maps.reserve(range.count);
    for (std::size_t xb = range.first; xb < range.first + range.count; ++xb) {
        FaultMap map = scan ? bist_scan(accelerator_.crossbar(xb)).detected
                            : accelerator_.crossbar(xb).fault_map();
        if (scan) ++bist_scans_;
        if (traits().spare_columns) map = repair_worst_columns(map, spares);
        // Online repair view: faults on substituted columns are routed to
        // spare columns and disappear from the image.
        if (traits().online) map = online_engine_.repaired_map(xb, std::move(map));
        maps.push_back(std::move(map));
    }
    return maps;
}

void FaultyHardware::rebuild_weight_view(bool scan) {
    const auto xb_rows = accelerator_.config().tile.crossbar_rows;
    const auto xb_cols = accelerator_.config().tile.crossbar_cols;
    for (auto& region : params_) {
        // Cover every physical crossbar row (not just the rows the logical
        // matrix occupies): NR exploits the unused rows as relocation targets.
        const std::size_t grid_r = (region.rows + xb_rows - 1) / xb_rows;
        region.grid = WeightFaultGrid(grid_r * xb_rows, region.cols,
                                      fault_view(region.range, scan), xb_rows, xb_cols);
        // Identity-placement overlay, recompiled only on these (rare)
        // rebuilds. NR replaces it with a permuted overlay once it has seen
        // this epoch's weights (the permutation depends on them).
        region.overlay = CompiledFaultOverlay(region.grid, region.rows, region.cols);
        region.nr_perm_fresh = false;
    }
    ++weights_version_;
}

void FaultyHardware::set_batch_partitions(
    const std::vector<std::vector<int>>& batch_node_parts) {
    batch_parts_ = batch_node_parts;
}

void FaultyHardware::preprocess(const std::vector<BitMatrix>& batch_adjacency) {
    batch_bits_ = batch_adjacency;
    // Size the streaming adjacency pool for the largest batch.
    const auto n = static_cast<std::size_t>(accelerator_.config().tile.crossbar_rows);
    std::size_t max_blocks = 1;
    for (const auto& adj : batch_adjacency) {
        const std::size_t grid = (std::max(adj.rows, adj.cols) + n - 1) / n;
        max_blocks = std::max(max_blocks, grid * grid);
    }
    // Expose the whole remaining crossbar budget to the mapper: fault-aware
    // block placement gains most of its power from *choosing* crossbars
    // (clustered fault centres leave many crossbars near-clean). FARe prunes
    // the pool to the cleanest candidates before the cost matrix.
    const std::size_t pool = std::min(config_.hardware.max_adjacency_pool,
                                      accelerator_.crossbars_available());
    FARE_CHECK(pool >= max_blocks,
               "adjacency pool cannot hold the largest batch's blocks");
    adj_range_ = accelerator_.allocate(pool);
    mapper_.set_max_crossbar_candidates(
        std::max<std::size_t>(2 * max_blocks, max_blocks + 4));

    // Partition-derived home tiles: the home of row-major block (bi, bj) is
    // the majority source partition of its *row* block bi (rows are where the
    // block's partial aggregations accumulate), lowest partition id on ties,
    // placed round-robin over the chip's tiles. Built whenever hints exist so
    // off-tile traffic is measured for every scheme; the mapping is *biased*
    // by it only under partition_aware_mapping.
    placements_.clear();
    if (!batch_parts_.empty() && batch_parts_.size() == batch_adjacency.size()) {
        const std::size_t per_tile =
            accelerator_.num_crossbars() /
            static_cast<std::size_t>(accelerator_.num_tiles());
        const int tiles = accelerator_.num_tiles();
        placements_.reserve(batch_adjacency.size());
        for (std::size_t b = 0; b < batch_adjacency.size(); ++b) {
            const auto& adj = batch_adjacency[b];
            const auto& parts = batch_parts_[b];
            const std::size_t grid = (std::max(adj.rows, adj.cols) + n - 1) / n;
            TilePlacement tp;
            tp.crossbars_per_tile = per_tile;
            tp.pool_base = adj_range_.first;
            tp.block_home_tile.assign(grid * grid, -1);
            int max_part = -1;
            for (int p : parts) max_part = std::max(max_part, p);
            std::vector<std::size_t> counts(
                static_cast<std::size_t>(max_part + 1), 0);
            for (std::size_t bi = 0; bi < grid; ++bi) {
                std::fill(counts.begin(), counts.end(), 0u);
                const std::size_t lo = bi * n;
                const std::size_t hi = std::min(lo + n, parts.size());
                int best = -1;
                for (std::size_t r = lo; r < hi; ++r) {
                    const int p = parts[r];
                    if (p < 0) continue;
                    const std::size_t c = ++counts[static_cast<std::size_t>(p)];
                    if (best < 0 || c > counts[static_cast<std::size_t>(best)] ||
                        (c == counts[static_cast<std::size_t>(best)] && p < best))
                        best = p;
                }
                if (best < 0) continue;
                const int home = best % tiles;
                for (std::size_t bj = 0; bj < grid; ++bj)
                    tp.block_home_tile[bi * grid + bj] = home;
            }
            placements_.push_back(std::move(tp));
        }
    }

    adj_maps_ = fault_view(adj_range_, /*scan=*/false);
    mappings_.clear();
    mappings_.reserve(batch_adjacency.size());
    for (std::size_t b = 0; b < batch_adjacency.size(); ++b) {
        const auto& adj = batch_adjacency[b];
        const TilePlacement* placement =
            config_.hardware.partition_aware_mapping && b < placements_.size()
                ? &placements_[b]
                : nullptr;
        switch (traits().mapping) {
            case MappingPolicy::kFaultAware:
                mappings_.push_back(mapper_.map_batch(adj, adj_maps_, placement));
                break;
            case MappingPolicy::kNeuronReorder:
                mappings_.push_back(mapper_.map_row_reorder(adj, adj_maps_));
                break;
            case MappingPolicy::kIdentity:
                mappings_.push_back(mapper_.map_identity(adj, adj_maps_));
                break;
        }
    }
    ++adjacency_version_;
}

Matrix FaultyHardware::effective_weights(std::size_t idx, const Matrix& w) {
    FARE_CHECK(idx < params_.size(), "unbound parameter index");
    const bool clip = traits().clips;
    // Significance pruning: program the bottom-|w| fraction as exact zeros
    // and force them back to zero on read-out, masking any fault underneath.
    // A pure function of `w`, so it needs no cache-invalidation plumbing.
    const std::vector<std::uint8_t> pruned =
        config_.hardware.prune_fraction > 0.0
            ? significance_prune_mask(w, config_.hardware.prune_fraction)
            : std::vector<std::uint8_t>{};
    const Matrix* stored = &w;
    Matrix pruned_w;
    if (!pruned.empty()) {
        pruned_w = w;
        auto flat = pruned_w.flat();
        for (std::size_t i = 0; i < flat.size(); ++i)
            if (pruned[i]) flat[i] = 0.0f;
        stored = &pruned_w;
    }
    Matrix out;
    if (!config_.faults.faults_on_weights) {
        out = quantize_dequantize(*stored);
        if (clip) clipper_.clip_in_place(out);
    } else {
        auto& region = params_[idx];
        const std::optional<float> threshold =
            clip ? std::optional<float>(clipper_.threshold()) : std::nullopt;
        if (traits().mapping == MappingPolicy::kNeuronReorder) {
            // The permutation (and therefore the compiled overlay) is stale
            // after every weight-view rebuild; both are rebuilt from this
            // epoch's weights on the first read-out, then applied per batch.
            if (!region.nr_perm_fresh || !region.overlay.compiled()) {
                const auto perm = nr_weight_permutation(idx, *stored, pruned);
                region.overlay =
                    CompiledFaultOverlay(region.grid, w.rows(), w.cols(), perm);
            }
        }
        out = region.overlay.apply(*stored, threshold);
    }
    if (!pruned.empty()) {
        auto flat = out.flat();
        for (std::size_t i = 0; i < flat.size(); ++i)
            if (pruned[i]) flat[i] = 0.0f;
    }
    if (config_.faults.read_noise_sigma > 0.0) {
        // Cycle-to-cycle conductance variation: multiplicative Gaussian
        // noise on every read-out value (extension non-ideality).
        for (auto& v : out.flat())
            v *= 1.0f + static_cast<float>(config_.faults.read_noise_sigma *
                                           noise_rng_.next_gaussian());
    }
    return out;
}

std::uint64_t FaultyHardware::weights_state_version() const {
    // Read noise makes every read-out unique: hand out a fresh stamp per
    // query so the trainer never reuses a cached corruption pass (this also
    // keeps the noise RNG stream identical to the uncached implementation).
    if (config_.faults.read_noise_sigma > 0.0) return next_fresh_stamp();
    return weights_version_;
}

std::vector<std::uint16_t> FaultyHardware::nr_weight_permutation(
    std::size_t idx, const Matrix& w, const std::vector<std::uint8_t>& pruned) {
    // Neuron granularity: one reorder unit = one logical weight row spanning
    // all 8 bit-slice cells. Cost of placing row r at physical row p = number
    // of stuck cells whose level differs from the stored slice. NR's
    // documented weaknesses are kept faithfully: SA0 and SA1 count alike (no
    // criticality model) and a mismatch near the MSB weighs the same as one
    // near the LSB (no significance model) — the unit is too coarse (§V-D).
    auto& region = params_[idx];
    const std::size_t n = w.rows();
    const std::size_t phys = region.grid.rows();
    FARE_CHECK(n <= phys, "weight matrix taller than its crossbar column");

    auto& cached = region.nr_perm;
    if (cached.size() != n) cached = identity_perm(static_cast<std::uint16_t>(n));
    // Stationary within an epoch: reuse the epoch's permutation (see header).
    if (region.nr_perm_fresh) return cached;
    // Small discount for keeping the previous placement across the epoch
    // boundary (avoids gratuitous relocation after a BIST refresh).
    constexpr double kStickiness = 0.25;
    const auto& prev = cached;

    // Slice the current weights once.
    std::vector<CellSlices> sliced(n * w.cols());
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < w.cols(); ++c)
            sliced[r * w.cols() + c] = slice_fixed(float_to_fixed(w(r, c)));

    // Exact min-cost assignment of n logical rows onto phys physical rows.
    std::vector<double> cost(n * phys, 0.0);
    for (std::size_t p = 0; p < phys; ++p) {
        for (std::size_t c = 0; c < w.cols(); ++c) {
            for (int s = 0; s < kCellsPerWeight; ++s) {
                const auto fault = region.grid.slice_fault(p, c, s);
                if (!fault.has_value()) continue;
                const std::uint8_t stuck = (*fault == FaultType::kSA0) ? 0 : 0x3;
                for (std::size_t r = 0; r < n; ++r) {
                    // A pruned weight carries no signal: a stuck cell under
                    // it is harmless, so it must not repel this placement.
                    if (!pruned.empty() && pruned[r * w.cols() + c]) continue;
                    const std::uint8_t stored =
                        sliced[r * w.cols() + c][static_cast<std::size_t>(s)];
                    if (stored != stuck) cost[r * phys + p] += 1.0;
                }
            }
        }
    }
    for (std::size_t r = 0; r < n; ++r) cost[r * phys + prev[r]] -= kStickiness;

    const AssignmentResult assignment = hungarian_min_cost(n, phys, cost);
    std::vector<std::uint16_t> perm(n, 0);
    for (std::size_t r = 0; r < n; ++r)
        perm[r] = static_cast<std::uint16_t>(assignment.row_to_col[r]);
    cached = perm;
    region.nr_perm_fresh = true;
    return perm;
}

BitMatrix FaultyHardware::effective_adjacency(std::size_t batch_idx,
                                              const BitMatrix& ideal) {
    if (!config_.faults.faults_on_adjacency) return ideal;
    FARE_CHECK(batch_idx < mappings_.size(), "unknown batch index");
    return mapper_.apply(ideal, mappings_[batch_idx], adj_maps_);
}

void FaultyHardware::refresh_fault_state(bool scan, bool remap) {
    // The paper re-enables BIST at every epoch boundary (~0.13% time
    // overhead); the rebuilt grids also invalidate NR's cached reorder, so
    // the next read-out recomputes it.
    rebuild_weight_view(scan);
    adj_maps_ = fault_view(adj_range_, /*scan=*/false);
    if (remap) {
        // FARe: row-only re-permutation on top of the standing assignment
        // Pi. NR: a fresh row reorder.
        if (traits().mapping == MappingPolicy::kFaultAware)
            mapper_.repermute(mappings_, batch_bits_, adj_maps_);
        else if (traits().mapping == MappingPolicy::kNeuronReorder)
            for (std::size_t b = 0; b < mappings_.size(); ++b)
                mappings_[b] = mapper_.map_row_reorder(batch_bits_[b], adj_maps_);
    }
    ++adjacency_version_;
}

void FaultyHardware::run_detection_round() {
    const OnlineRoundOutcome outcome = online_engine_.detection_round(
        global_step_, accelerator_, in_use_crossbars());
    online_engine_.charge_seconds(
        timing_.march_latency_s(outcome.march_cell_ops) +
            timing_.readback_latency_s(outcome.readback_checks),
        timing_.reprogram_latency_s(outcome.repair_pulses));
    if (!outcome.state_changed) return;
    // Knowledge refresh: the march already paid the scan cost, so the
    // mitigation state rebuilds from the repaired truth.
    refresh_fault_state(/*scan=*/false, /*remap=*/true);
}

std::vector<std::size_t> FaultyHardware::in_use_crossbars() const {
    std::vector<std::size_t> out;
    for (const auto& region : params_)
        for (std::size_t i = 0; i < region.range.count; ++i)
            out.push_back(region.range.first + i);
    for (std::size_t i = 0; i < adj_range_.count; ++i)
        out.push_back(adj_range_.first + i);
    return out;
}

std::size_t FaultyHardware::arrival_checkpoint(double uniform_quantum,
                                               bool force_refresh) {
    std::size_t arrived = 0;
    std::vector<std::size_t> touched;
    const bool online = traits().online;
    std::vector<std::size_t>* touched_out = online ? &touched : nullptr;
    if (uniform_quantum > 0.0)
        arrived += accelerator_.inject_post_deployment_faults(
            uniform_quantum, config_.faults.post_sa1_fraction, wear_rng_,
            /*soft=*/false, touched_out);
    if (config_.faults.soft_error_rate > 0.0)
        arrived += accelerator_.inject_post_deployment_faults(
            config_.faults.soft_error_rate, config_.faults.post_sa1_fraction, wear_rng_,
            /*soft=*/true, touched_out);
    const std::vector<WornCell> worn = wear_model_.advance(accelerator_);
    arrived += worn.size();
    if (online) {
        for (const WornCell& cell : worn) touched.push_back(cell.crossbar);
        online_engine_.note_arrivals(global_step_, touched);
    }
    // Overlays / stamps invalidate exactly when fault state actually
    // changed (force_refresh keeps the legacy schedule's unconditional
    // per-epoch BIST refresh). Online schemes see the corruption at once,
    // but with no BIST and no re-permutation: the new damage stays
    // un-mitigated until a detection round discovers it — the
    // detection-latency cost the online schemes pay.
    if (arrived > 0 || force_refresh)
        refresh_fault_state(/*scan=*/!online, /*remap=*/!online);
    return arrived;
}

double FaultyHardware::uniform_checkpoint_quantum() const {
    if (config_.faults.post_total_density <= 0.0) return 0.0;
    const std::size_t epochs = config_.faults.post_epochs > 0
                                   ? config_.faults.post_epochs
                                   : config_.train_epochs;
    const double per_epoch =
        config_.faults.post_total_density / static_cast<double>(epochs);
    const std::size_t period = config_.faults.arrival_period_batches;
    const std::size_t checkpoints =
        1 + (period > 0 ? steps_per_epoch_ / period : 0);
    return per_epoch / static_cast<double>(checkpoints);
}

void FaultyHardware::on_step_end(std::size_t epoch, std::size_t step,
                                 std::size_t steps_per_epoch) {
    (void)epoch;
    steps_per_epoch_ = steps_per_epoch;
    // Endurance accounting: one optimizer step rewrites every weight region
    // and streams the batch's adjacency blocks through the pool — one
    // array-level write per crossbar in use (O(1) each, no cell traffic).
    const std::uint64_t writes = config_.faults.wear.writes_per_step;
    for (const auto& region : params_)
        for (std::size_t i = 0; i < region.range.count; ++i)
            accelerator_.crossbar(region.range.first + i)
                .add_uniform_writes(writes);
    for (std::size_t i = 0; i < adj_range_.count; ++i)
        accelerator_.crossbar(adj_range_.first + i).add_uniform_writes(writes);

    ++global_step_;

    const std::size_t period = config_.faults.arrival_period_batches;
    if (period > 0 && (step + 1) % period == 0 && config_.faults.arrivals_live())
        arrival_checkpoint(uniform_checkpoint_quantum(),
                           /*force_refresh=*/false);

    // Detection cadence is independent of the arrival cadence: a round fires
    // every detect_period_batches global steps, whether or not anything
    // arrived (the march/readback cost is paid regardless — that is the
    // point of the frontier).
    if (traits().online &&
        global_step_ % config_.hardware.online.detect_period_batches == 0)
        run_detection_round();
}

void FaultyHardware::accumulate_noc_epoch() {
    std::size_t off = 0;
    const std::size_t batches = std::min(mappings_.size(), placements_.size());
    for (std::size_t b = 0; b < batches; ++b)
        off += off_tile_counts(mappings_[b], placements_[b]).first;
    noc_seconds_ += timing_.noc_transfer_latency_s(off);
}

double FaultyHardware::off_tile_block_fraction() const {
    std::size_t off = 0, total = 0;
    const std::size_t batches = std::min(mappings_.size(), placements_.size());
    for (std::size_t b = 0; b < batches; ++b) {
        const auto [o, t] = off_tile_counts(mappings_[b], placements_[b]);
        off += o;
        total += t;
    }
    return total > 0 ? static_cast<double>(off) / static_cast<double>(total)
                     : 0.0;
}

void FaultyHardware::on_epoch_end(std::size_t epoch) {
    (void)epoch;
    // Each finished epoch re-uses every batch mapping once: charge the NoC
    // time of this epoch's off-home-tile blocks (measured whether or not the
    // mapping was biased — the win shows up as the biased/unbiased delta).
    accumulate_noc_epoch();
    if (!config_.faults.arrivals_live()) return;
    // Legacy schedule (uniform stream only, epoch-boundary arrivals): keep
    // the unconditional per-epoch BIST refresh — bit-compatible with the
    // pre-wear implementation. Every other combination refreshes only when
    // faults actually arrived.
    const bool legacy = config_.faults.post_total_density > 0.0 &&
                        !wear_model_.enabled() &&
                        config_.faults.arrival_period_batches == 0;
    arrival_checkpoint(uniform_checkpoint_quantum(), legacy);
}

double FaultyHardware::total_mapping_cost() const {
    double sum = 0.0;
    for (const auto& m : mappings_) sum += m.total_cost();
    return sum;
}

std::unique_ptr<HardwareModel> make_hardware(Scheme scheme,
                                             const FaultyHardwareConfig& config) {
    if (scheme == Scheme::kFaultFree)
        return std::make_unique<IdealQuantizedHardware>();
    return std::make_unique<FaultyHardware>(scheme, config);
}

}  // namespace fare
