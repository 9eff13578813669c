#include "reram/compiled_overlay.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "numeric/fixed_point.hpp"

namespace fare {

CompiledFaultOverlay::CompiledFaultOverlay(const WeightFaultGrid& grid,
                                           std::size_t rows, std::size_t cols,
                                           std::span<const std::uint16_t> perm)
    : rows_(rows), cols_(cols) {
    FARE_CHECK(grid.rows() >= rows && grid.cols() == cols,
               "fault grid does not cover weight matrix");
    FARE_CHECK(perm.empty() || perm.size() == rows, "permutation size mismatch");

    // O(faulty weights): the grid pre-folded each faulty weight's slices
    // into one AND/OR mask pair per row, so compiling is copying the mask
    // arrays and offsetting the weight columns to flat indices, sized up
    // front.
    std::size_t total = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t pr = perm.empty() ? r : perm[r];
        FARE_CHECK(pr < grid.rows(), "permutation target out of range");
        total += grid.row_mask_list(pr).cols.size();
    }
    idx_.resize(total);
    and_.resize(total);
    or_.resize(total);
    std::size_t pos = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t pr = perm.empty() ? r : perm[r];
        const WeightFaultGrid::RowMasks faults = grid.row_mask_list(pr);
        const std::size_t n = faults.cols.size();
        if (n == 0) continue;
        const std::uint32_t base = static_cast<std::uint32_t>(r * cols);
        for (std::size_t i = 0; i < n; ++i)
            idx_[pos + i] = base + faults.cols[i];
        std::memcpy(and_.data() + pos, faults.and_masks.data(),
                    n * sizeof(std::uint16_t));
        std::memcpy(or_.data() + pos, faults.or_masks.data(),
                    n * sizeof(std::uint16_t));
        pos += n;
    }
}

Matrix CompiledFaultOverlay::apply(const Matrix& w,
                                   std::optional<float> clip) const {
    FARE_CHECK(compiled(), "overlay not compiled");
    FARE_CHECK(w.rows() == rows_ && w.cols() == cols_,
               "overlay geometry does not match weight matrix");
    Matrix out = Matrix::uninitialized(w.rows(), w.cols());
    const float* src = w.flat().data();
    float* dst = out.flat().data();
    const std::size_t n = w.size();
    const simd::SimdKernels& k = simd::kernels();

    if (!clip.has_value()) {
        // Dense fault-free quantise -> dequantise pass, then the branchless
        // image' = (image & and) | or fix-up at the faulty entries only.
        k.quantize_dequantize(src, dst, n);
        k.overlay_fixup(src, dst, idx_.data(), and_.data(), or_.data(),
                        idx_.size());
        return out;
    }

    // Same two passes with the clipping unit fused in (identical result to
    // corrupt-then-clamp: the fix-up re-clamps the entries it rewrites).
    k.quantize_dequantize_clip(src, dst, n, *clip);
    k.overlay_fixup_clip(src, dst, idx_.data(), and_.data(), or_.data(),
                         idx_.size(), *clip);
    return out;
}

}  // namespace fare
