// Functional model of one ReRAM crossbar array.
//
// Cells store `kBitsPerCell`-bit conductance levels (Table III: 2-bit/cell).
// Programming a faulty cell silently has no effect — reads return the stuck
// level: SA0 reads 0 (high-resistance state), SA1 reads the maximum level
// (low-resistance state).
//
// Write endurance is tracked *per cell* so the WearModel
// (reram/wear_model.hpp) can convert accumulated writes into
// endurance-driven stuck-at arrivals: program()/program_row() count one
// write per touched cell, and add_uniform_writes() charges a whole-array
// reprogram (the per-step weight/adjacency rewrite of the training loop) in
// O(1) via a shared base counter instead of touching every cell.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "numeric/fixed_point.hpp"
#include "reram/fault_model.hpp"

namespace fare {

class Crossbar {
public:
    Crossbar(std::uint16_t rows, std::uint16_t cols);

    std::uint16_t rows() const { return rows_; }
    std::uint16_t cols() const { return cols_; }

    /// Attach / replace the fault overlay (e.g. after wear).
    void set_fault_map(FaultMap map);
    const FaultMap& fault_map() const { return faults_; }

    /// Program one cell with a 2-bit level. Counts one write; stuck cells
    /// ignore the write.
    void program(std::uint16_t row, std::uint16_t col, std::uint8_t level);

    /// Program an entire row of levels (vector width = cols).
    void program_row(std::uint16_t row, const std::vector<std::uint8_t>& levels);

    /// Effective level seen by the sense circuitry (fault overlay applied).
    std::uint8_t read(std::uint16_t row, std::uint16_t col) const;

    /// Pristine stored level ignoring faults (test/debug only — real hardware
    /// cannot observe this).
    std::uint8_t stored(std::uint16_t row, std::uint16_t col) const;

    /// Apply `pulses` re-forming program pulses to a cell: each pulse counts
    /// as one write (repair itself causes wear). A *soft* stuck-at clears;
    /// a hard fault survives the pulse train. Returns true iff the cell is
    /// healthy afterwards.
    bool reform(std::uint16_t row, std::uint16_t col, std::uint32_t pulses);

    /// Charge `count` array-level writes: every cell's endurance counter
    /// advances by `count` without changing stored levels. O(1) — this is
    /// the per-training-step accounting hook (the functional simulator does
    /// not re-program crossbars cell by cell in the hot loop) and the charge
    /// of a BIST march, which rewrites every cell's level as it found it.
    void add_uniform_writes(std::uint64_t count) { uniform_writes_ += count; }

    /// Accumulated writes of one cell: per-cell program() writes plus the
    /// array-level uniform charge. Monotonically non-decreasing.
    std::uint64_t writes(std::uint16_t row, std::uint16_t col) const {
        FARE_DCHECK(row < rows_ && col < cols_, "write-count position out of range");
        return uniform_writes_ + cell_writes_[index(row, col)];
    }

    /// Array-level write charge shared by every cell.
    std::uint64_t uniform_writes() const { return uniform_writes_; }

    /// Upper bound on any single cell's writes() — used by the WearModel to
    /// skip scanning crossbars that cannot have reached any lifetime yet.
    std::uint64_t max_cell_writes() const {
        return uniform_writes_ + max_cell_extra_;
    }

    /// Total cell-write operations since construction (endurance
    /// accounting): per-cell program() writes plus uniform charges applied
    /// to every cell of the array.
    std::uint64_t total_writes() const {
        return writes_ + uniform_writes_ * static_cast<std::uint64_t>(cells_.size());
    }

    /// Maximum programmable level for the cell resolution (3 for 2-bit).
    static constexpr std::uint8_t max_level() {
        return static_cast<std::uint8_t>((1u << kBitsPerCell) - 1u);
    }

private:
    std::size_t index(std::uint16_t r, std::uint16_t c) const {
        return static_cast<std::size_t>(r) * cols_ + c;
    }

    std::uint16_t rows_;
    std::uint16_t cols_;
    std::vector<std::uint8_t> cells_;
    std::vector<std::uint32_t> cell_writes_;  // per-cell program() writes
    FaultMap faults_;
    std::uint64_t writes_ = 0;          // program() call count
    std::uint64_t uniform_writes_ = 0;  // array-level charges (per cell)
    std::uint32_t max_cell_extra_ = 0;  // max of cell_writes_
};

}  // namespace fare
