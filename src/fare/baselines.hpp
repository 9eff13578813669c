// HardwareModel implementations for every scheme the paper evaluates:
//
//   fault-free      — ideal crossbars (fixed-point quantisation only);
//   fault-unaware   — naive mapping, no mitigation (paper's "fault-unaware");
//   NR              — neuron reordering [7]: row-granularity re-permutation
//                     of weights recomputed after every batch, and
//                     equal-weight row permutation of adjacency blocks with
//                     identity block placement; treats SA0 = SA1;
//   weight clipping — clipping alone [12]: weights clamped, adjacency naive;
//   FARe            — Algorithm 1 adjacency mapping (SA1-weighted b-Suitor
//                     row matching + Hungarian block assignment + removal
//                     rules) plus weight clipping; per-epoch BIST rescan and
//                     row re-permutation for post-deployment faults;
//   online FARe     — FARe mapping/clipping plus the in-training
//                     detection/correction engine (reram/online_tolerance.hpp):
//                     rotating partial BIST + readback checks, targeted
//                     re-programming and spare-column substitution, graceful
//                     degradation to remap on spare exhaustion;
//   online naive    — the online engine alone over naive (identity) mapping.
//
// All faulty schemes share one simulated accelerator: faults are injected
// into its crossbars, weight regions are allocated per model parameter, and
// an adjacency pool serves the streaming batch blocks. What sets a scheme
// apart is its SchemeTraits row (reram/timing_model.hpp).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "fare/mapper.hpp"
#include "fare/scenario.hpp"
#include "fare/weight_clipper.hpp"
#include "nn/hardware_model.hpp"
#include "nn/train_types.hpp"
#include "reram/accelerator.hpp"
#include "reram/compiled_overlay.hpp"
#include "reram/corruption.hpp"
#include "reram/online_tolerance.hpp"
#include "reram/timing_model.hpp"
#include "reram/wear_model.hpp"

namespace fare {

/// Everything a faulty chip is built from: the fault scenario and chip
/// overrides as declared (fare/scenario.hpp), the fault-injection seed, and
/// the training length a scenario with post_epochs == 0 spreads its
/// post-deployment arrival over.
struct FaultyHardwareConfig {
    FaultScenario faults;
    HardwareOverrides hardware;
    std::uint64_t seed = 1;
    std::size_t train_epochs = TrainConfig{}.epochs;
};

/// Aggregate (scenario, overrides, seed, epochs) into the config consumed by
/// make_hardware()/run_scheme().
inline FaultyHardwareConfig to_hardware_config(const FaultScenario& scenario,
                                               const HardwareOverrides& hw,
                                               std::uint64_t seed,
                                               std::size_t train_epochs) {
    return {scenario, hw, seed, train_epochs};
}

/// Ideal hardware: weights round-trip the 16-bit fixed-point grid, adjacency
/// is exact. The fault-free baseline every figure normalises against.
class IdealQuantizedHardware final : public HardwareModel {
public:
    Matrix effective_weights(std::size_t idx, const Matrix& w) override;
    /// Deterministic and stateless: opt in to trainer-side caching.
    std::uint64_t weights_state_version() const override { return 0; }
    std::uint64_t adjacency_state_version() const override { return 0; }
};

/// Shared faulty-hardware implementation, specialised by Scheme.
class FaultyHardware final : public HardwareModel {
public:
    FaultyHardware(Scheme scheme, const FaultyHardwareConfig& config);

    void bind_params(const std::vector<Matrix*>& params) override;
    void set_batch_partitions(
        const std::vector<std::vector<int>>& batch_node_parts) override;
    void preprocess(const std::vector<BitMatrix>& batch_adjacency) override;
    Matrix effective_weights(std::size_t idx, const Matrix& w) override;
    BitMatrix effective_adjacency(std::size_t batch_idx,
                                  const BitMatrix& ideal) override;
    /// Endurance accounting + mid-epoch arrival checkpoints: every training
    /// step charges `wear.writes_per_step` array writes to the crossbars in
    /// use, and — when arrival_period_batches > 0 — every period-th step is
    /// an arrival checkpoint (wear expiries plus this checkpoint's share of
    /// the uniform stream). Fault state refreshes (BIST, overlay recompile,
    /// version stamps) only when faults actually arrived.
    void on_step_end(std::size_t epoch, std::size_t step,
                     std::size_t steps_per_epoch) override;
    void on_epoch_end(std::size_t epoch) override;
    std::uint64_t weights_state_version() const override;
    std::uint64_t adjacency_state_version() const override { return adjacency_version_; }

    // Introspection (tests, examples, benches).
    Scheme scheme() const { return scheme_; }
    const Accelerator& accelerator() const { return accelerator_; }
    const WearModel& wear_model() const { return wear_model_; }
    const std::vector<AdjacencyMapping>& batch_mappings() const { return mappings_; }
    std::size_t bist_scans() const { return bist_scans_; }
    /// Cells worn out by the endurance model so far.
    std::size_t wear_faults() const { return wear_model_.total_worn(); }
    double total_mapping_cost() const;
    /// Online detection/correction engine (meaningful for the online
    /// schemes; default-constructed otherwise).
    const OnlineToleranceEngine& online_engine() const { return online_engine_; }
    OnlineToleranceStats online_stats() const { return online_engine_.stats(); }
    /// Fraction of mapped adjacency blocks (with a partition-derived home
    /// tile) whose crossbar landed OFF that tile, over all batch mappings.
    /// 0 when no partition hints were supplied or nothing was mapped.
    double off_tile_block_fraction() const;
    /// Modelled NoC time spent shipping off-home-tile partial aggregations,
    /// accumulated once per finished epoch over every batch mapping.
    double inter_tile_seconds() const { return noc_seconds_; }

private:
    const SchemeTraits& traits() const { return scheme_traits(scheme_); }
    /// The scheme's view of the fault maps of `range`, one per crossbar: a
    /// BIST scan (counted in bist_scans) or, without `scan`, the true map —
    /// what an exact march would detect, with no scan charged and no march
    /// wear. Then the redundant-columns repair and the online engine's
    /// spare-column substitutions. The only place fault maps reach a scheme.
    std::vector<FaultMap> fault_view(CrossbarRange range, bool scan);
    /// Rebuild every weight region's fault grid and identity overlay from
    /// fault_view and bump the weights version: anything cached off
    /// effective_weights() must recompute, and NR's permutations are stale.
    void rebuild_weight_view(bool scan);
    /// Rebuild everything derived from the crossbar fault maps: the weight
    /// view, the adjacency-pool image (always the true maps) and, with
    /// `remap`, FARe's row re-permutation or NR's row reorder of every batch
    /// mapping; then bump the adjacency version.
    void refresh_fault_state(bool scan, bool remap);
    /// One arrival checkpoint: inject `uniform_quantum` added density of
    /// the uniform post-deployment stream (0 skips it), advance the wear
    /// model, and — iff any fault actually arrived — refresh the fault
    /// state. `force_refresh` keeps the legacy unconditional per-epoch BIST
    /// refresh of the uniform-only schedule. Returns the number of arrivals.
    std::size_t arrival_checkpoint(double uniform_quantum, bool force_refresh);
    /// This checkpoint's share of the uniform post-deployment stream: the
    /// per-epoch quantum split across the epoch's arrival checkpoints.
    double uniform_checkpoint_quantum() const;
    /// One detection round of the online engine: partial march + readback
    /// escalation + targeted repair, costs charged through the timing model;
    /// mitigation state (overlays, pool image, FARe re-permutation) refreshes
    /// iff the round changed the effective fault view.
    void run_detection_round();
    /// Flat indices of every crossbar the run actually uses (weight regions
    /// + adjacency pool), ascending.
    std::vector<std::size_t> in_use_crossbars() const;
    /// NR: bit-level row mismatch matching at neuron granularity.
    /// The permutation is refreshed once per epoch (after the BIST rescan),
    /// not per batch: recomputing on every batch's drifted weights makes the
    /// corruption pattern non-stationary, which defeats backprop
    /// compensation and would sink NR below even the fault-unaware baseline.
    /// The timing model still charges the per-batch reorder stalls the paper
    /// describes (each batch's reorder must be validated against the updated
    /// weights before the next batch may enter the pipeline).
    /// `pruned` (empty = no pruning) marks flattened (row, col) positions
    /// whose weights are pruned to zero: their mismatches are skipped, since
    /// a stuck cell under a pruned weight costs nothing.
    std::vector<std::uint16_t> nr_weight_permutation(
        std::size_t idx, const Matrix& w, const std::vector<std::uint8_t>& pruned);

    Scheme scheme_;
    FaultyHardwareConfig config_;
    Accelerator accelerator_;
    WeightClipper clipper_;
    FaultAwareMapper mapper_;
    WearModel wear_model_;
    OnlineToleranceEngine online_engine_;
    TimingModel timing_;
    Rng wear_rng_;
    Rng noise_rng_;
    std::size_t steps_per_epoch_ = 0;  // last seen; sizes the checkpoint split
    std::uint64_t global_step_ = 0;    // monotonic across epochs

    struct ParamRegion {
        CrossbarRange range;
        std::size_t rows = 0, cols = 0;
        WeightFaultGrid grid;
        /// Fault grid folded into branchless per-weight masks; recompiled on
        /// every weight-view rebuild and NR re-permutation, applied per batch.
        CompiledFaultOverlay overlay;
        /// NR: the region's row permutation, valid this epoch while fresh.
        std::vector<std::uint16_t> nr_perm;
        bool nr_perm_fresh = false;
    };
    std::vector<ParamRegion> params_;
    /// Count the off-home-tile blocks of every current mapping and charge
    /// their modelled NoC transfer time to noc_seconds_ (one epoch's worth).
    void accumulate_noc_epoch();

    CrossbarRange adj_range_{};
    std::vector<AdjacencyMapping> mappings_;  // one per batch
    std::vector<BitMatrix> batch_bits_;       // ideal bits (for repermute)
    std::vector<std::vector<int>> batch_parts_;  // node -> partition hints
    std::vector<TilePlacement> placements_;      // one per batch (may be empty)
    double noc_seconds_ = 0.0;
    std::vector<FaultMap> adj_maps_;          // cached pool fault view
    std::size_t bist_scans_ = 0;
    std::uint64_t weights_version_ = 0;    // bumped by rebuild_weight_view
    std::uint64_t adjacency_version_ = 0;  // bumped on preprocess/wear events
};

/// Factory covering all five schemes; kFaultFree returns the quantised-ideal
/// model (no fault machinery).
std::unique_ptr<HardwareModel> make_hardware(Scheme scheme,
                                             const FaultyHardwareConfig& config);

}  // namespace fare
