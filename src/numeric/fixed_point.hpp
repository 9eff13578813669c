// 16-bit fixed-point representation used by the simulated ReRAM hardware.
//
// The paper (Sec. III-A): "weights on ReRAM-based architectures are commonly
// represented using 16-bit fixed-point precision. The 16 bits are distributed
// across multiple cells with architectures often adopting a 2-bit
// representation per cell." We use a Q8.8 format stored SIGN-MAGNITUDE on
// the cells (bit 15 = sign, bits 14..0 = magnitude), split into 8 cells of
// 2 bits, most-significant slice first, recombined by the tile's
// shift-and-add unit. Sign-magnitude matches differential-array ReRAM
// practice and gives the fault semantics the paper describes (Fig. 1a):
// a stuck-at-1 in a high slice sets large magnitude bits — "weight
// explosion" — while a stuck-at-0 merely clears (mostly already-zero)
// magnitude bits of small weights.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace fare {

/// Number of fraction bits in the Q-format (Q8.8).
inline constexpr int kFixedFractionBits = 8;
/// Total bits per weight.
inline constexpr int kFixedTotalBits = 16;
/// Bits stored per ReRAM cell (Table III: 2-bit/cell resolution).
inline constexpr int kBitsPerCell = 2;
/// Cells per 16-bit weight (= 8).
inline constexpr int kCellsPerWeight = kFixedTotalBits / kBitsPerCell;
/// Largest representable magnitude (sign-magnitude Q8.8, symmetric range).
inline constexpr float kFixedMax = 127.99609375f;   // 0x7FFF / 256
inline constexpr float kFixedMin = -127.99609375f;  // -0x7FFF / 256

/// One weight's bit-slices: slice[0] holds the two most significant bits.
using CellSlices = std::array<std::uint8_t, kCellsPerWeight>;

/// Quantise a float to the Q8.8 grid (round to nearest, saturate at the
/// symmetric format limits; -32768 is never produced). Inline: this runs
/// once per weight per batch in the corruption hot path.
inline std::int16_t float_to_fixed(float v) {
    const float scaled = v * static_cast<float>(1 << kFixedFractionBits);
    const float rounded = std::nearbyint(scaled);
    // Symmetric saturation: sign-magnitude cannot encode -32768.
    if (rounded >= 32767.0f) return 32767;
    if (rounded <= -32767.0f) return -32767;
    return static_cast<std::int16_t>(rounded);
}

/// Exact inverse of the quantiser on in-range values.
inline float fixed_to_float(std::int16_t q) {
    return static_cast<float>(q) / static_cast<float>(1 << kFixedFractionBits);
}

/// The 16-bit cell image of a value: bit 15 = sign, bits 14..0 = magnitude.
/// Equals the concatenation of slice_fixed()'s slices, MSB slice first —
/// the domain the compiled fault-overlay masks operate in.
inline std::uint16_t fixed_to_cell_image(std::int16_t q) {
    const std::uint16_t mag =
        static_cast<std::uint16_t>(q < 0 ? -static_cast<std::int32_t>(q)
                                         : static_cast<std::int32_t>(q)) &
        0x7FFFu;
    return static_cast<std::uint16_t>((q < 0 ? 0x8000u : 0u) | mag);
}

/// Inverse of fixed_to_cell_image (0x8000, a negative zero, decodes to 0).
inline std::int16_t cell_image_to_fixed(std::uint16_t u) {
    const auto mag = static_cast<std::int32_t>(u & 0x7FFFu);
    return static_cast<std::int16_t>((u & 0x8000u) ? -mag : mag);
}

/// Split a value into 8 cells of 2 bits of its sign-magnitude encoding
/// (sign bit + 15 magnitude bits), MSB slice first.
CellSlices slice_fixed(std::int16_t q);

/// Quantisation step (1/256 for Q8.8).
inline constexpr float kFixedStep = 1.0f / (1 << kFixedFractionBits);

}  // namespace fare
