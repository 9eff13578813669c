#include "numeric/quantize.hpp"

#include "common/simd.hpp"

namespace fare {

Matrix quantize_dequantize(const Matrix& m) {
    Matrix out = Matrix::uninitialized(m.rows(), m.cols());
    simd::kernels().quantize_dequantize(m.flat().data(), out.flat().data(), m.size());
    return out;
}

}  // namespace fare
