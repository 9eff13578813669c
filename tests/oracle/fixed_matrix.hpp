// The hardware's 16-bit fixed-point grid for the oracles that model the
// bit-sliced crossbars value by value (oracle/mvm_engine.hpp,
// oracle/corruption_reference.hpp): a fixed-point matrix, the slice
// recombination and the format's quantisation error bound.
#pragma once

#include <cstdint>
#include <vector>

#include "numeric/fixed_point.hpp"
#include "numeric/matrix.hpp"

namespace fare {

struct FixedMatrix {
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<std::int16_t> data;  // row-major

    std::int16_t& at(std::size_t r, std::size_t c) { return data[r * cols + c]; }
    std::int16_t at(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
};

/// float_to_fixed on every element (round-to-nearest, saturating).
FixedMatrix quantize(const Matrix& m);

/// fixed_to_float on every element.
Matrix dequantize(const FixedMatrix& q);

/// Recombine cell slices into the signed value (shift-and-add + sign): the
/// inverse of slice_fixed.
std::int16_t unslice_fixed(const CellSlices& slices);

/// Worst-case absolute quantisation error of the format (half a step).
inline constexpr float kQuantErrorBound = kFixedStep / 2.0f;

}  // namespace fare
