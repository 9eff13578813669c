// Bit-exact matrix-vector multiplication through crossbar-stored weights.
//
// This is the reference model of what the analog tile computes: 16-bit
// fixed-point weights are sliced into 8 cells of 2 bits, distributed across a
// grid of crossbars, read back through the fault overlay, recombined by
// shift-and-add, and multiplied against Q8.8-quantised inputs with integer
// accumulation (paper §III-A, Fig. 1a).
//
// The training loop does NOT run every MVM through this engine — it uses the
// compiled fault overlay (reram/compiled_overlay.hpp), which tests assert is
// bit-identical to this engine (docs/performance.md, *Equivalence contract*).
// A test oracle: only the test and bench targets link it.
#pragma once

#include <cstdint>
#include <vector>

#include "numeric/matrix.hpp"
#include "oracle/fixed_matrix.hpp"
#include "reram/crossbar.hpp"

namespace fare {

/// A weight matrix programmed onto a private grid of crossbars.
///
/// Layout: weight (r, c) occupies cells (r % xb_rows, (c % wpx) * 8 + s) of
/// grid crossbar (r / xb_rows, c / wpx), where wpx = xb_cols / 8 is the
/// number of weights per crossbar row and s indexes the MSB-first slices.
class ProgrammedWeights {
public:
    /// Create storage for a (rows x cols) weight matrix on crossbars of the
    /// given geometry. xb_cols must be a multiple of kCellsPerWeight.
    ProgrammedWeights(std::size_t rows, std::size_t cols, std::uint16_t xb_rows = 128,
                      std::uint16_t xb_cols = 128);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t num_crossbars() const { return xbars_.size(); }

    /// Grid shape.
    std::size_t grid_rows() const { return grid_rows_; }
    std::size_t grid_cols() const { return grid_cols_; }

    Crossbar& crossbar(std::size_t grid_r, std::size_t grid_c);

    /// Attach fault maps, one per grid crossbar (row-major grid order).
    void set_fault_maps(const std::vector<FaultMap>& maps);

    /// Program all weights (writes every cell; stuck cells ignore writes).
    void program(const FixedMatrix& weights);
    void program(const Matrix& weights);

    /// Read back the effective fixed-point weights (fault overlay applied,
    /// shift-and-add recombination).
    FixedMatrix read_effective() const;

    /// y = x * W_eff with Q8.8 inputs and 64-bit integer accumulation:
    /// x is (batch x rows), result is (batch x cols) in float.
    Matrix mvm(const Matrix& x) const;

private:
    std::size_t rows_, cols_;
    std::uint16_t xb_rows_, xb_cols_;
    std::size_t weights_per_xb_row_;
    std::size_t grid_rows_, grid_cols_;
    std::vector<Crossbar> xbars_;  // row-major grid
};

}  // namespace fare
