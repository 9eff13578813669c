// ReRAM tile specification: the unit of Table III. The Accelerator holds
// every tile's crossbars in one flat, tile-major array; TileSpec sizes them
// and rolls up the chip's area and power.
//
//   96 ADCs (8-bit), 12x128x8 DACs (1-bit), 96 crossbars of 128x128 cells,
//   10 MHz array clock, 2-bit/cell, 8 comparators (16-bit @ 2 GHz) and 8
//   2:1 muxes implementing weight clipping, 0.34 W, 0.157 mm^2.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fare {

struct TileSpec {
    std::uint16_t crossbar_rows = 128;
    std::uint16_t crossbar_cols = 128;
    int crossbars_per_tile = 96;
    int bits_per_cell = 2;
    int adc_bits = 8;
    int num_adcs = 96;
    int num_dacs = 12 * 128 * 8;  // 1-bit DACs
    double array_clock_hz = 10e6;
    int num_comparators = 8;       // 16-bit comparators for clipping
    double comparator_clock_hz = 2e9;
    int num_muxes = 8;             // 2:1 muxes for clipping
    double power_w = 0.34;
    double area_mm2 = 0.157;

    std::size_t cells_per_crossbar() const {
        return static_cast<std::size_t>(crossbar_rows) * crossbar_cols;
    }
    std::size_t cells_per_tile() const {
        return cells_per_crossbar() * static_cast<std::size_t>(crossbars_per_tile);
    }
};

}  // namespace fare
