// Matrix-level quantisation helper bridging the float training world and the
// fixed-point storage world of the simulated crossbars.
#pragma once

#include "numeric/fixed_point.hpp"
#include "numeric/matrix.hpp"

namespace fare {

/// Round-trip a float matrix through the fixed-point grid, i.e. the value the
/// hardware would actually compute with in the absence of faults.
Matrix quantize_dequantize(const Matrix& m);

}  // namespace fare
