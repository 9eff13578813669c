// Stuck-at-fault (SAF) model for ReRAM crossbars.
//
// Paper §II-A / §V-A: SAFs pin a cell to low resistance (stuck-at-1) or high
// resistance (stuck-at-0); they cluster around fault centres, which the paper
// models as a Poisson distribution of fault counts *across* crossbars with a
// uniform distribution *within* each crossbar, and a configurable SA0:SA1
// ratio (9:1 from characterisation data [6], plus a pessimistic 1:1).
// Pre-deployment faults exist at t = 0-; post-deployment faults accumulate
// with write wear and are injected incrementally between epochs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

namespace fare {

class Rng;

enum class FaultType : std::uint8_t { kSA0 = 1, kSA1 = 2 };

struct CellFault {
    std::uint16_t row = 0;
    std::uint16_t col = 0;
    FaultType type = FaultType::kSA0;
};

/// Fault map of a single crossbar: dense lookup grid + sparse listing.
class FaultMap {
public:
    FaultMap() = default;
    FaultMap(std::uint16_t rows, std::uint16_t cols);

    std::uint16_t rows() const { return rows_; }
    std::uint16_t cols() const { return cols_; }

    /// Add (or overwrite) a fault at a cell. `soft` marks a transient
    /// (re-formable) stuck-at: it corrupts reads and is BIST-detected exactly
    /// like a hard fault, but a re-forming pulse train (Crossbar::reform)
    /// can clear it. Hard faults are permanent.
    void add(std::uint16_t row, std::uint16_t col, FaultType type,
             bool soft = false);

    /// Remove the fault at a cell (no-op when healthy). Used by the online
    /// correction path after a successful re-form.
    void clear(std::uint16_t row, std::uint16_t col);

    /// Keep every fault but forget which ones are soft: the image a BIST
    /// march detects, which cannot tell soft from hard.
    void clear_soft_flags();

    /// Fault at a cell, if any.
    std::optional<FaultType> at(std::uint16_t row, std::uint16_t col) const;

    bool is_faulty(std::uint16_t row, std::uint16_t col) const {
        return grid_[index(row, col)] != 0;
    }

    /// True iff the cell holds a *soft* (re-formable) fault.
    bool is_soft(std::uint16_t row, std::uint16_t col) const {
        return soft_[index(row, col)] != 0;
    }

    /// All faults, sorted by (row, col).
    std::vector<CellFault> all_faults() const;

    /// Call `visit(row, col, type)` for every fault in (row, col) order,
    /// skipping healthy cells eight at a time: a sparse map costs little
    /// more than its faults.
    template <typename Visit>
    void for_each_fault(Visit&& visit) const;

    /// Faults within one crossbar row, sorted by column.
    std::vector<CellFault> row_faults(std::uint16_t row) const;

    /// Raw cells of row `row` (< rows()), one byte per column: 0 = healthy,
    /// else the FaultType value. For bulk readers that pack the map into
    /// bitsets without a per-cell lookup.
    std::span<const std::uint8_t> row_cells(std::uint16_t row) const {
        return {grid_.data() + index(row, 0), cols_};
    }

    std::size_t num_faults() const { return num_sa0_ + num_sa1_; }
    std::size_t num_sa0() const { return num_sa0_; }
    std::size_t num_sa1() const { return num_sa1_; }
    std::size_t num_soft() const { return num_soft_; }

    /// Fraction of faulty cells.
    double fault_density() const;

    bool operator==(const FaultMap&) const = default;

private:
    std::size_t index(std::uint16_t r, std::uint16_t c) const {
        return static_cast<std::size_t>(r) * cols_ + c;
    }

    std::uint16_t rows_ = 0;
    std::uint16_t cols_ = 0;
    std::vector<std::uint8_t> grid_;  // 0 = healthy, else FaultType
    std::vector<std::uint8_t> soft_;  // 1 = re-formable (soft) fault
    std::size_t num_sa0_ = 0;
    std::size_t num_sa1_ = 0;
    std::size_t num_soft_ = 0;
};

template <typename Visit>
void FaultMap::for_each_fault(Visit&& visit) const {
    if (num_faults() == 0) return;
    for (std::uint16_t r = 0; r < rows_; ++r) {
        const std::uint8_t* cells = grid_.data() + index(r, 0);
        for (std::size_t c = 0; c < cols_; c += 8) {
            const std::size_t end = std::min<std::size_t>(c + 8, cols_);
            if (end - c == 8) {
                std::uint64_t word;
                std::memcpy(&word, cells + c, sizeof word);
                if (word == 0) continue;
            }
            for (std::size_t k = c; k < end; ++k)
                if (cells[k] != 0)
                    visit(r, static_cast<std::uint16_t>(k),
                          static_cast<FaultType>(cells[k]));
        }
    }
}

/// Injection parameters (paper §V-A).
struct FaultInjectionConfig {
    /// Fraction of all cells that are faulty ("fault density").
    double density = 0.05;
    /// Fraction of faults that are SA1 (0.1 => SA0:SA1 = 9:1; 0.5 => 1:1).
    double sa1_fraction = 0.1;
    /// Clustering of faults across crossbars ("fault centers" [6]): each
    /// crossbar's fault count is Poisson with a Gamma-distributed rate of
    /// this shape (a Gamma–Poisson mixture). Small shape => strongly
    /// clustered: many near-clean crossbars, a few fault centers. <= 0
    /// degenerates to a pure Poisson with fixed rate (no clustering).
    double cluster_shape = 1.5;
    std::uint64_t seed = 1;
};

/// Sample fault maps for `num_crossbars` crossbars: Poisson-distributed fault
/// counts across crossbars, uniform placement within each crossbar.
std::vector<FaultMap> inject_faults(std::size_t num_crossbars, std::uint16_t rows,
                                    std::uint16_t cols,
                                    const FaultInjectionConfig& config);

/// Add post-deployment faults on top of existing maps: `added_density` more
/// of each crossbar's cells become faulty (skipping already-faulty cells).
/// Returns the number of faults placed. `soft` marks the placed faults as
/// re-formable; when `touched` is non-null, the indices of maps that gained
/// at least one fault are appended to it.
std::size_t inject_additional_faults(std::vector<FaultMap>& maps,
                                     double added_density, double sa1_fraction,
                                     Rng& rng, bool soft = false,
                                     std::vector<std::size_t>* touched = nullptr);

/// Aggregate density over a set of crossbars.
double mean_fault_density(const std::vector<FaultMap>& maps);

/// Hardware redundancy baseline [8]: replace the `num_spares` columns with
/// the most (SA1-weighted) faults by spare columns, i.e. drop their faults
/// from the map. Spares are assumed fault-free — the usual optimistic
/// assumption for the redundancy baseline.
FaultMap repair_worst_columns(const FaultMap& map, std::size_t num_spares,
                              double sa1_weight = 4.0);

}  // namespace fare
