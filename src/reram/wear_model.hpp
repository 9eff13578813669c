// Endurance-driven wear model: write counts -> stuck-at arrivals.
//
// Real ReRAM cells survive a finite number of SET/RESET cycles; worn-out
// cells get stuck, and wear-out clusters into per-crossbar hot spots
// ("Hamun", arXiv:2502.01502). This module converts the per-cell write
// counts the Crossbar tracks (reram/crossbar.hpp) into fault arrivals:
//
//   * every cell draws a Weibull-distributed write lifetime, seeded
//     deterministically per (seed, crossbar, row, col) — the same seed
//     always yields the same lifetimes, independent of scan order, thread
//     count or sharding;
//   * a configurable fraction of crossbars are endurance hot spots whose
//     lifetimes are divided by `hot_spot_severity` (process variation:
//     weak crossbars wear out first and collect clustered faults);
//   * advance() finds the cells whose accumulated writes crossed their
//     lifetime since the last call and pins them in the crossbar fault
//     maps as stuck-at faults (polarity drawn per cell from sa1_fraction).
//
// advance() pays per cell that can expire, not per healthy cell. A cell's
// lifetime is a monotone function of its hash quantile u, and no cell can
// hold more than max_cell_writes() writes, so only cells with u below the
// Weibull CDF at that bound can have expired. Each crossbar keeps its live
// cells below a listed quantile in row-major order and lists more, in one
// pass over the crossbar, only when the bound outgrows them.
//
// The model never un-fails a cell and never reports the same cell twice, so
// callers can refresh BIST images / compiled overlays exactly when advance()
// returns a non-zero arrival count.
#pragma once

#include <cstdint>
#include <vector>

#include "reram/fault_model.hpp"

namespace fare {

class Accelerator;

/// Scenario-level wear description (embedded in FaultScenario; the
/// hardware seed and stuck-at polarity ratio arrive separately through
/// FaultyHardwareConfig).
struct WearSpec {
    /// Mean writes-to-failure of a healthy cell; 0 disables wear entirely.
    double endurance_mean_writes = 0.0;
    /// Weibull shape k of the lifetime distribution (k = 2: gentle early
    /// spread; large k: near-deterministic wear-out at the mean).
    double weibull_shape = 2.0;
    /// Fraction of crossbars that are endurance hot spots in [0,1].
    double hot_spot_fraction = 0.0;
    /// Endurance divisor inside a hot spot (> 1: hot spots die sooner).
    double hot_spot_severity = 8.0;
    /// Array-level writes charged per training step (one optimizer step
    /// rewrites the weight regions and streams the batch's adjacency
    /// blocks; scale this to model finer write granularity).
    std::uint64_t writes_per_step = 1;

    bool enabled() const { return endurance_mean_writes > 0.0; }
};

/// One endurance-driven arrival reported by WearModel::advance().
struct WornCell {
    std::size_t crossbar = 0;
    CellFault fault;
    std::uint64_t at_writes = 0;  ///< the cell's write count when it expired
};

class WearModel {
public:
    /// Disabled model: advance() is a no-op. Keeps FaultyHardware free of
    /// null checks.
    WearModel() = default;

    /// `sa1_fraction` sets the stuck polarity of worn-out cells; `seed`
    /// drives every per-cell draw (lifetime, hot-spot membership,
    /// polarity).
    WearModel(std::size_t num_crossbars, std::uint16_t rows, std::uint16_t cols,
              const WearSpec& spec, double sa1_fraction, std::uint64_t seed);

    bool enabled() const { return spec_.enabled(); }
    const WearSpec& spec() const { return spec_; }

    /// Deterministic hot-spot membership of a crossbar.
    bool is_hot_spot(std::size_t crossbar) const;
    /// Mean writes-to-failure for cells of a crossbar (endurance_mean
    /// divided by hot_spot_severity inside hot spots).
    double crossbar_endurance(std::size_t crossbar) const;
    /// The cell's Weibull lifetime draw — a pure function of
    /// (seed, crossbar, row, col), stable across calls and processes.
    double cell_lifetime(std::size_t crossbar, std::uint16_t row,
                         std::uint16_t col) const;

    /// Find the cells whose accumulated writes crossed their lifetime
    /// since the last advance, pin each as a stuck-at fault in its
    /// crossbar's fault map, and report the new arrivals (crossbar-major,
    /// row-major — deterministic). Cells already faulty for another reason
    /// (e.g. manufacturing SAFs) are marked worn but keep their existing
    /// fault type.
    std::vector<WornCell> advance(Accelerator& accelerator);

    /// Cells worn out across all advance() calls.
    std::size_t total_worn() const { return total_worn_; }

private:
    /// The live cells of one crossbar that may wear out soon: every not yet
    /// worn cell whose lifetime quantile u is <= listed_u, in row-major
    /// order. Cells above listed_u carry no state.
    struct Candidates {
        double listed_u = 0.0;
        std::vector<std::uint32_t> cells;  ///< row << 16 | col
        std::vector<double> u;             ///< each cell's quantile
    };

    /// Hash state of one crossbar's cell draws under `salt`; each cell's
    /// uniform in (0,1) finishes it with the cell position, so a pass over
    /// the crossbar hashes once per cell.
    std::uint64_t draw_stream(std::size_t crossbar, std::uint64_t salt) const;
    /// Weibull scale of a crossbar's cells (hot spots divide it).
    double crossbar_scale(std::size_t crossbar) const;
    /// Lifetime at quantile u: the one expression behind cell_lifetime()
    /// and advance(), so both produce the same doubles.
    double lifetime_at(double u, double scale) const;
    /// Upper bound on the quantile u of any cell whose lifetime is <= writes.
    double quantile_bound(double writes, double scale) const;
    /// Merge into `list` every cell with listed_u < u <= bound.
    void relist(std::size_t crossbar, Candidates& list, double bound);

    WearSpec spec_;
    double sa1_fraction_ = 0.1;
    std::uint64_t seed_ = 1;
    std::size_t num_crossbars_ = 0;
    std::uint16_t rows_ = 0;
    std::uint16_t cols_ = 0;
    double weibull_scale_ = 0.0;  ///< lambda such that mean == endurance_mean

    std::vector<Candidates> candidates_;  ///< per crossbar
    /// relist()'s output buffers, one crossbar long, reused across calls.
    std::vector<std::uint32_t> relist_cells_;
    std::vector<double> relist_u_;
    std::size_t total_worn_ = 0;
};

}  // namespace fare
