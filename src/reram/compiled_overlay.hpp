// Compiled fault overlay: the stuck-cell effect of a WeightFaultGrid (plus an
// optional logical->physical row permutation) folded into per-weight 16-bit
// AND/OR masks over the sign-magnitude cell image, with a sparse index of the
// weights that have any faulty cell at all.
//
// Motivation (hot-loop economics): the training loop re-derives effective
// weights on every batch, but the *fault pattern* only changes at epoch
// boundaries (BIST rescan after wear, re-permutation). Compiling the pattern
// once turns per-batch corruption into one vectorisable quantise->dequantise
// (+clip) pass over all weights plus a branchless
//
//     image' = (image & and_mask) | or_mask
//
// fix-up applied only at the faulty entries — at the paper's densities well
// under 15% of weights are touched. A stuck-at-0 slice clears its two image
// bits (AND), a stuck-at-1 slice sets them (OR); the masks are the
// composition of all eight slices' effects. Tests hold it bit-identical to
// the per-cell scalar path and to the bit-sliced crossbar readback
// (tests/oracle/).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "numeric/matrix.hpp"
#include "reram/corruption.hpp"

namespace fare {

class CompiledFaultOverlay {
public:
    CompiledFaultOverlay() = default;

    /// Compile the overlay for a (rows x cols) logical weight matrix stored
    /// on `grid`, with logical row r placed at physical row perm[r]. An empty
    /// perm means identity placement (the no-permutation fast path — nothing
    /// is allocated per call). Grid coverage and permutation targets are
    /// validated here, once, instead of per weight per batch.
    CompiledFaultOverlay(const WeightFaultGrid& grid, std::size_t rows,
                         std::size_t cols,
                         std::span<const std::uint16_t> perm = {});

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool compiled() const { return rows_ != 0; }
    /// Number of weights with at least one faulty cell.
    std::size_t num_faulty_weights() const { return idx_.size(); }

    /// Effective weights: quantise -> dequantise every entry, apply the
    /// masked fix-up at the faulty entries, then optionally clamp everything
    /// to [-clip, clip] (the 16-bit comparator + 2:1 mux clipping unit).
    /// Both passes run through the runtime-dispatched SIMD kernel table
    /// (common/simd.hpp).
    Matrix apply(const Matrix& w, std::optional<float> clip = std::nullopt) const;

private:
    // Structure-of-arrays so the SIMD fix-up kernel streams indices and
    // masks with plain vector loads; sorted by index, one entry per faulty
    // weight. The masks themselves are pre-folded by WeightFaultGrid —
    // compiling here is concatenation plus the row -> flat-index offset.
    std::size_t rows_ = 0, cols_ = 0;
    std::vector<std::uint32_t> idx_;   ///< flat r * cols + c into the matrix
    std::vector<std::uint16_t> and_;   ///< faulty slices cleared
    std::vector<std::uint16_t> or_;    ///< SA1 slices set
};

}  // namespace fare
