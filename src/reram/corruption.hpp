// Stuck cells under stored matrices: the per-cell fault grid of a weight
// region and the binary adjacency block.
//
// Training applies faults by corrupting the *values* a crossbar would return
// rather than simulating every analog MVM — exactly what the paper's
// PyTorch-on-NeuroSim wrapper does (§V-A). CompiledFaultOverlay
// (reram/compiled_overlay.hpp) applies a WeightFaultGrid to weights; unit
// tests assert it is bit-identical to reading back through the bit-sliced
// crossbar oracle (tests/oracle/mvm_engine.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "numeric/fixed_point.hpp"
#include "reram/fault_model.hpp"

namespace fare {

/// Dense per-cell fault grid covering a (rows x cols*8) cell region that
/// stores a (rows x cols) weight matrix, assembled from per-crossbar fault
/// maps of a row-major crossbar grid: weight (r, c) occupies cells
/// (r % xb_rows, (c % wpx) * 8 + s) of grid crossbar (r / xb_rows, c / wpx),
/// where wpx = xb_cols / 8 and s indexes the MSB-first slices.
class WeightFaultGrid {
public:
    WeightFaultGrid() = default;

    /// Build for a (rows x cols) weight matrix from fault maps of the
    /// row-major crossbar grid.
    WeightFaultGrid(std::size_t rows, std::size_t cols,
                    const std::vector<FaultMap>& grid_maps,
                    std::uint16_t xb_rows = 128, std::uint16_t xb_cols = 128);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return cells_.empty(); }

    /// Fault on slice s (0 = MSB slice) of weight (r, c), if any.
    std::optional<FaultType> slice_fault(std::size_t r, std::size_t c, int s) const;

    /// Faulty weights of one physical row: parallel arrays sorted by weight
    /// column, one entry per weight with at least one faulty cell, each
    /// weight's faulty slices already folded into 16-bit AND/OR masks over
    /// the sign-magnitude cell image (a stuck-at-0 slice clears its two
    /// image bits, stuck-at-1 sets them). Pre-folded, structure-of-arrays:
    /// CompiledFaultOverlay compiles by memcpy-ing the mask arrays and
    /// offsetting the columns.
    struct RowMasks {
        std::span<const std::uint32_t> cols;       ///< weight columns
        std::span<const std::uint16_t> and_masks;  ///< faulty slices cleared
        std::span<const std::uint16_t> or_masks;   ///< SA1 slices set
    };

    /// Pre-folded mask entries of physical row r. Lets CompiledFaultOverlay
    /// compile in O(faulty weights) instead of scanning the dense
    /// (rows x cols*8) cell grid.
    RowMasks row_mask_list(std::size_t r) const {
        const std::size_t b = row_offsets_[r], n = row_offsets_[r + 1] - b;
        return {{fault_cols_.data() + b, n},
                {fault_and_.data() + b, n},
                {fault_or_.data() + b, n}};
    }

    /// Total faulty cells covering the weight region.
    std::size_t num_faults() const { return num_faults_; }

private:
    std::size_t rows_ = 0, cols_ = 0;
    std::vector<std::uint8_t> cells_;  // (rows x cols*8), 0 = healthy
    // Sparse pre-folded mask index, sorted by (row, weight_col): rows_ + 1
    // offsets into three parallel arrays.
    std::vector<std::size_t> row_offsets_;
    std::vector<std::uint32_t> fault_cols_;
    std::vector<std::uint16_t> fault_and_;
    std::vector<std::uint16_t> fault_or_;
    std::size_t num_faults_ = 0;
};

/// Dense binary adjacency block (paper: adjacency is stored 1 bit per cell).
struct BinaryBlock {
    std::uint16_t size = 0;            ///< block is (size x size)
    std::vector<std::uint8_t> bits;    ///< row-major 0/1

    std::uint8_t at(std::uint16_t r, std::uint16_t c) const {
        return bits[static_cast<std::size_t>(r) * size + c];
    }
    void set(std::uint16_t r, std::uint16_t c, std::uint8_t v) {
        bits[static_cast<std::size_t>(r) * size + c] = v;
    }
    /// Fraction of ones (the paper's "edge density" of a block).
    double edge_density() const;
};

/// Identity permutation of length n.
std::vector<std::uint16_t> identity_perm(std::uint16_t n);

}  // namespace fare
