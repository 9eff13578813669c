#include "oracle/fixed_matrix.hpp"

namespace fare {

FixedMatrix quantize(const Matrix& m) {
    FixedMatrix q;
    q.rows = m.rows();
    q.cols = m.cols();
    q.data.reserve(m.size());
    for (const float v : m.flat()) q.data.push_back(float_to_fixed(v));
    return q;
}

Matrix dequantize(const FixedMatrix& q) {
    Matrix m(q.rows, q.cols);
    std::size_t i = 0;
    for (float& v : m.flat()) v = fixed_to_float(q.data[i++]);
    return m;
}

std::int16_t unslice_fixed(const CellSlices& slices) {
    std::uint16_t u = 0;
    for (int c = 0; c < kCellsPerWeight; ++c) {
        u = static_cast<std::uint16_t>(u << kBitsPerCell);
        u = static_cast<std::uint16_t>(u | (slices[static_cast<std::size_t>(c)] & 0x3u));
    }
    return cell_image_to_fixed(u);
}

}  // namespace fare
