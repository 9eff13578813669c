#include "oracle/corruption_reference.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "oracle/fixed_matrix.hpp"

namespace fare {

std::int16_t corrupt_fixed(std::int16_t q, const WeightFaultGrid& grid, std::size_t r,
                           std::size_t c) {
    CellSlices slices = slice_fixed(q);
    for (int s = 0; s < kCellsPerWeight; ++s) {
        const auto fault = grid.slice_fault(r, c, s);
        if (!fault.has_value()) continue;
        slices[static_cast<std::size_t>(s)] =
            (*fault == FaultType::kSA0) ? 0 : 0x3;
    }
    return unslice_fixed(slices);
}

Matrix corrupt_weights_reference(const Matrix& w, const WeightFaultGrid& grid,
                                 std::optional<float> clip) {
    return corrupt_weights_permuted_reference(
        w, grid, identity_perm(static_cast<std::uint16_t>(w.rows())), clip);
}

Matrix corrupt_weights_permuted_reference(const Matrix& w, const WeightFaultGrid& grid,
                                          const std::vector<std::uint16_t>& perm,
                                          std::optional<float> clip) {
    FARE_CHECK(grid.rows() >= w.rows() && grid.cols() == w.cols(),
               "fault grid does not cover weight matrix");
    FARE_CHECK(perm.size() == w.rows(), "permutation size mismatch");
    Matrix out(w.rows(), w.cols());
    for (std::size_t r = 0; r < w.rows(); ++r) {
        const std::size_t pr = perm[r];
        FARE_CHECK(pr < grid.rows(), "permutation target out of range");
        for (std::size_t c = 0; c < w.cols(); ++c) {
            const std::int16_t q = float_to_fixed(w(r, c));
            float v = fixed_to_float(corrupt_fixed(q, grid, pr, c));
            if (clip.has_value()) v = std::clamp(v, -*clip, *clip);
            out(r, c) = v;
        }
    }
    return out;
}

BinaryBlock corrupt_adjacency_block(const BinaryBlock& block, const FaultMap& map,
                                    const std::vector<std::uint16_t>& perm) {
    FARE_CHECK(map.rows() >= block.size && map.cols() >= block.size,
               "fault map smaller than block");
    FARE_CHECK(perm.size() == block.size, "permutation size mismatch");
    BinaryBlock out = block;
    for (std::uint16_t r = 0; r < block.size; ++r) {
        const std::uint16_t pr = perm[r];
        for (std::uint16_t c = 0; c < block.size; ++c) {
            const auto fault = map.at(pr, c);
            if (!fault.has_value()) continue;
            out.set(r, c, *fault == FaultType::kSA0 ? 0 : 1);
        }
    }
    return out;
}

}  // namespace fare
