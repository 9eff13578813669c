#include "reram/corruption.hpp"

#include "common/error.hpp"

namespace fare {

WeightFaultGrid::WeightFaultGrid(std::size_t rows, std::size_t cols,
                                 const std::vector<FaultMap>& grid_maps,
                                 std::uint16_t xb_rows, std::uint16_t xb_cols)
    : rows_(rows), cols_(cols) {
    FARE_CHECK(xb_cols % kCellsPerWeight == 0,
               "crossbar width must hold whole weights");
    const std::size_t wpx = static_cast<std::size_t>(xb_cols) / kCellsPerWeight;
    const std::size_t grid_rows = (rows + xb_rows - 1) / xb_rows;
    const std::size_t grid_cols = (cols + wpx - 1) / wpx;
    FARE_CHECK(grid_maps.size() == grid_rows * grid_cols,
               "need one fault map per grid crossbar");

    const std::size_t cell_cols = cols * static_cast<std::size_t>(kCellsPerWeight);
    cells_.assign(rows * cell_cols, 0);
    // (physical row, weight col, slice, type) in (grid row, grid col, map
    // row, map col) order; the stable counting sort below groups them per
    // row while keeping each row's (weight_col, slice) ascending.
    struct Collected {
        std::uint32_t row;
        std::uint32_t weight_col;
        std::uint8_t slice;
        std::uint8_t type;
    };
    std::vector<Collected> collected;
    for (std::size_t gr = 0; gr < grid_rows; ++gr) {
        for (std::size_t gc = 0; gc < grid_cols; ++gc) {
            const auto& map = grid_maps[gr * grid_cols + gc];
            FARE_CHECK(map.rows() == xb_rows && map.cols() == xb_cols,
                       "fault map geometry mismatch");
            for (const CellFault& f : map.all_faults()) {
                const std::size_t r = gr * xb_rows + f.row;
                if (r >= rows) continue;
                const std::size_t weight_c = gc * wpx + f.col / kCellsPerWeight;
                if (weight_c >= cols) continue;
                const std::size_t s = f.col % kCellsPerWeight;
                cells_[r * cell_cols + weight_c * kCellsPerWeight + s] =
                    static_cast<std::uint8_t>(f.type);
                ++num_faults_;
                collected.push_back({static_cast<std::uint32_t>(r),
                                     static_cast<std::uint32_t>(weight_c),
                                     static_cast<std::uint8_t>(s),
                                     static_cast<std::uint8_t>(f.type)});
            }
        }
    }
    std::vector<std::size_t> counts(rows + 1, 0);
    for (const Collected& f : collected) ++counts[f.row + 1];
    for (std::size_t r = 0; r < rows; ++r) counts[r + 1] += counts[r];
    std::vector<Collected> sorted(collected.size());
    std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
    for (const Collected& f : collected) sorted[cursor[f.row]++] = f;

    // Fold each faulty weight's slices (adjacent after the sort) into one
    // AND/OR mask pair over the sign-magnitude cell image.
    row_offsets_.assign(rows + 1, 0);
    fault_cols_.reserve(collected.size());
    fault_and_.reserve(collected.size());
    fault_or_.reserve(collected.size());
    for (std::size_t i = 0; i < sorted.size();) {
        const std::uint32_t r = sorted[i].row;
        const std::uint32_t weight_c = sorted[i].weight_col;
        std::uint16_t and_mask = 0xFFFFu, or_mask = 0;
        do {
            const int shift = kFixedTotalBits - kBitsPerCell * (sorted[i].slice + 1);
            const auto bits = static_cast<std::uint16_t>(0x3u << shift);
            and_mask = static_cast<std::uint16_t>(and_mask & ~bits);
            if (static_cast<FaultType>(sorted[i].type) == FaultType::kSA1)
                or_mask = static_cast<std::uint16_t>(or_mask | bits);
            ++i;
        } while (i < sorted.size() && sorted[i].row == r &&
                 sorted[i].weight_col == weight_c);
        fault_cols_.push_back(weight_c);
        fault_and_.push_back(and_mask);
        fault_or_.push_back(or_mask);
        ++row_offsets_[r + 1];
    }
    for (std::size_t r = 0; r < rows; ++r) row_offsets_[r + 1] += row_offsets_[r];
}

std::optional<FaultType> WeightFaultGrid::slice_fault(std::size_t r, std::size_t c,
                                                      int s) const {
    FARE_CHECK(r < rows_ && c < cols_ && s >= 0 && s < kCellsPerWeight,
               "slice_fault index out of range");
    const std::size_t cell_cols = cols_ * static_cast<std::size_t>(kCellsPerWeight);
    const auto v = cells_[r * cell_cols + c * kCellsPerWeight + static_cast<std::size_t>(s)];
    if (v == 0) return std::nullopt;
    return static_cast<FaultType>(v);
}

double BinaryBlock::edge_density() const {
    if (bits.empty()) return 0.0;
    std::size_t ones = 0;
    for (auto b : bits) ones += b;
    return static_cast<double>(ones) / static_cast<double>(bits.size());
}

std::vector<std::uint16_t> identity_perm(std::uint16_t n) {
    std::vector<std::uint16_t> perm(n);
    for (std::uint16_t i = 0; i < n; ++i) perm[i] = i;
    return perm;
}

}  // namespace fare
