#include "numeric/fixed_point.hpp"

namespace fare {

CellSlices slice_fixed(std::int16_t q) {
    const std::uint16_t u = fixed_to_cell_image(q);
    CellSlices slices{};
    for (int c = 0; c < kCellsPerWeight; ++c) {
        const int shift = kFixedTotalBits - kBitsPerCell * (c + 1);
        slices[static_cast<std::size_t>(c)] =
            static_cast<std::uint8_t>((u >> shift) & 0x3u);
    }
    return slices;
}

}  // namespace fare
