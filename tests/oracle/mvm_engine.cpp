#include "oracle/mvm_engine.hpp"

#include "common/error.hpp"

namespace fare {

ProgrammedWeights::ProgrammedWeights(std::size_t rows, std::size_t cols,
                                     std::uint16_t xb_rows, std::uint16_t xb_cols)
    : rows_(rows), cols_(cols), xb_rows_(xb_rows), xb_cols_(xb_cols) {
    FARE_CHECK(rows > 0 && cols > 0, "weight matrix must be non-empty");
    FARE_CHECK(xb_cols % kCellsPerWeight == 0,
               "crossbar width must hold whole weights");
    weights_per_xb_row_ = static_cast<std::size_t>(xb_cols) / kCellsPerWeight;
    grid_rows_ = (rows + xb_rows - 1) / xb_rows;
    grid_cols_ = (cols + weights_per_xb_row_ - 1) / weights_per_xb_row_;
    xbars_.reserve(grid_rows_ * grid_cols_);
    for (std::size_t i = 0; i < grid_rows_ * grid_cols_; ++i)
        xbars_.emplace_back(xb_rows_, xb_cols_);
}

Crossbar& ProgrammedWeights::crossbar(std::size_t grid_r, std::size_t grid_c) {
    FARE_CHECK(grid_r < grid_rows_ && grid_c < grid_cols_, "grid index out of range");
    return xbars_[grid_r * grid_cols_ + grid_c];
}

void ProgrammedWeights::set_fault_maps(const std::vector<FaultMap>& maps) {
    FARE_CHECK(maps.size() == xbars_.size(), "need one fault map per crossbar");
    for (std::size_t i = 0; i < maps.size(); ++i) xbars_[i].set_fault_map(maps[i]);
}

void ProgrammedWeights::program(const FixedMatrix& weights) {
    FARE_CHECK(weights.rows == rows_ && weights.cols == cols_,
               "programmed shape mismatch");
    for (std::size_t r = 0; r < rows_; ++r) {
        const std::size_t gr = r / xb_rows_;
        const auto xr = static_cast<std::uint16_t>(r % xb_rows_);
        for (std::size_t c = 0; c < cols_; ++c) {
            const std::size_t gc = c / weights_per_xb_row_;
            const std::size_t wslot = c % weights_per_xb_row_;
            auto& xb = xbars_[gr * grid_cols_ + gc];
            const CellSlices slices = slice_fixed(weights.at(r, c));
            for (int s = 0; s < kCellsPerWeight; ++s) {
                const auto xc = static_cast<std::uint16_t>(
                    wslot * kCellsPerWeight + static_cast<std::size_t>(s));
                xb.program(xr, xc, slices[static_cast<std::size_t>(s)]);
            }
        }
    }
}

void ProgrammedWeights::program(const Matrix& weights) {
    program(quantize(weights));
}

FixedMatrix ProgrammedWeights::read_effective() const {
    FixedMatrix out;
    out.rows = rows_;
    out.cols = cols_;
    out.data.resize(rows_ * cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        const std::size_t gr = r / xb_rows_;
        const auto xr = static_cast<std::uint16_t>(r % xb_rows_);
        for (std::size_t c = 0; c < cols_; ++c) {
            const std::size_t gc = c / weights_per_xb_row_;
            const std::size_t wslot = c % weights_per_xb_row_;
            const auto& xb = xbars_[gr * grid_cols_ + gc];
            CellSlices slices{};
            for (int s = 0; s < kCellsPerWeight; ++s) {
                const auto xc = static_cast<std::uint16_t>(
                    wslot * kCellsPerWeight + static_cast<std::size_t>(s));
                slices[static_cast<std::size_t>(s)] = xb.read(xr, xc);
            }
            out.at(r, c) = unslice_fixed(slices);  // shift-and-add
        }
    }
    return out;
}

Matrix ProgrammedWeights::mvm(const Matrix& x) const {
    FARE_CHECK(x.cols() == rows_, "mvm input width mismatch");
    const FixedMatrix w_eff = read_effective();
    Matrix y(x.rows(), cols_);
    // Q8.8 x Q8.8 -> Q16.16 accumulation in int64; scale back once.
    const double scale = 1.0 / static_cast<double>(1 << (2 * kFixedFractionBits));
    for (std::size_t b = 0; b < x.rows(); ++b) {
        auto xrow = x.row(b);
        for (std::size_t c = 0; c < cols_; ++c) {
            std::int64_t acc = 0;
            for (std::size_t r = 0; r < rows_; ++r) {
                const std::int64_t xq = float_to_fixed(xrow[r]);
                acc += xq * static_cast<std::int64_t>(w_eff.at(r, c));
            }
            y(b, c) = static_cast<float>(static_cast<double>(acc) * scale);
        }
    }
    return y;
}

}  // namespace fare
