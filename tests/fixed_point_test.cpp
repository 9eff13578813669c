#include "numeric/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "numeric/quantize.hpp"
#include "oracle/fixed_matrix.hpp"

namespace fare {
namespace {

TEST(FixedPointTest, KnownConversions) {
    EXPECT_EQ(float_to_fixed(1.0f), 256);
    EXPECT_EQ(float_to_fixed(-1.0f), -256);
    EXPECT_EQ(float_to_fixed(0.5f), 128);
    EXPECT_EQ(float_to_fixed(0.0f), 0);
    EXPECT_FLOAT_EQ(fixed_to_float(256), 1.0f);
    EXPECT_FLOAT_EQ(fixed_to_float(-128), -0.5f);
}

TEST(FixedPointTest, SaturatesAtFormatLimits) {
    EXPECT_EQ(float_to_fixed(1000.0f), 32767);
    // Symmetric saturation: sign-magnitude cannot encode -32768.
    EXPECT_EQ(float_to_fixed(-1000.0f), -32767);
    EXPECT_FLOAT_EQ(fixed_to_float(32767), kFixedMax);
    EXPECT_FLOAT_EQ(fixed_to_float(-32767), kFixedMin);
}

TEST(FixedPointTest, RoundTripErrorBounded) {
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const float v = rng.uniform(-100.0f, 100.0f);
        const float rt = fixed_to_float(float_to_fixed(v));
        EXPECT_LE(std::fabs(rt - v), kFixedStep / 2.0f + 1e-6f) << v;
    }
}

TEST(FixedPointTest, SliceUnsliceIdentityAllRepresentableValues) {
    // Property: slice -> unslice is the identity for every representable
    // value of the symmetric sign-magnitude format.
    for (int q = -32767; q <= 32767; ++q) {
        const auto word = static_cast<std::int16_t>(q);
        EXPECT_EQ(unslice_fixed(slice_fixed(word)), word);
    }
}

TEST(FixedPointTest, SignMagnitudeKeepsSmallNegativeSlicesSparse) {
    // The reason for sign-magnitude storage: a small negative weight must
    // NOT have its high slices full of sign-extension ones (two's complement
    // would, and SA0 faults would then explode negative weights — the
    // opposite of the paper's Fig. 3 finding).
    const CellSlices s = slice_fixed(float_to_fixed(-0.05f));
    for (int c = 1; c < kCellsPerWeight - 2; ++c)
        EXPECT_EQ(s[static_cast<std::size_t>(c)], 0) << "slice " << c;
    // Only the sign slice carries the sign bit.
    EXPECT_EQ(s[0], 0b10);
}

TEST(FixedPointTest, Sa0OnSignSliceIsBoundedBySmallMagnitude) {
    // SA0 on the sign slice of a small negative weight just flips it
    // positive: |error| = 2 * |w|, never an explosion.
    const float w = -0.4f;
    CellSlices s = slice_fixed(float_to_fixed(w));
    s[0] = 0;
    const float faulty = fixed_to_float(unslice_fixed(s));
    EXPECT_NEAR(faulty, 0.4f, 2.0f * kFixedStep);
}

TEST(FixedPointTest, SliceZeroIsAllZero) {
    const CellSlices s = slice_fixed(0);
    for (auto cell : s) EXPECT_EQ(cell, 0);
}

TEST(FixedPointTest, MsbSliceFirst) {
    // 0x4000 = 0b01'00'00'00'00'00'00'00 => slice 0 holds the top two bits.
    const CellSlices s = slice_fixed(static_cast<std::int16_t>(0x4000));
    EXPECT_EQ(s[0], 0b01);
    for (int i = 1; i < kCellsPerWeight; ++i)
        EXPECT_EQ(s[static_cast<std::size_t>(i)], 0);
}

TEST(FixedPointTest, Sa1InMsbSliceExplodesSmallWeight) {
    // The paper's Fig. 1(a): a stuck-at-1 near the MSB turns a small weight
    // into a huge one.
    const float small = 0.5f;
    CellSlices s = slice_fixed(float_to_fixed(small));
    s[0] = 0x3;  // SA1 forces the MSB cell to full conductance
    const float exploded = fixed_to_float(unslice_fixed(s));
    EXPECT_GT(std::fabs(exploded), 60.0f);
}

TEST(FixedPointTest, Sa0InLsbSliceIsMinor) {
    const float v = 0.5f;
    CellSlices s = slice_fixed(float_to_fixed(v));
    s[7] = 0;  // SA0 on the least significant cell
    const float faulty = fixed_to_float(unslice_fixed(s));
    EXPECT_LE(std::fabs(faulty - v), 3.0f * kFixedStep);
}

TEST(QuantizeTest, MatrixRoundTrip) {
    Rng rng(2);
    Matrix m(8, 8);
    for (auto& v : m.flat()) v = rng.uniform(-2.0f, 2.0f);
    const Matrix rt = quantize_dequantize(m);
    EXPECT_LE(max_abs_diff(m, rt), kQuantErrorBound + 1e-6f);
}

TEST(QuantizeTest, ShapesPreserved) {
    Matrix m(3, 5, 0.25f);
    const FixedMatrix q = quantize(m);
    EXPECT_EQ(q.rows, 3u);
    EXPECT_EQ(q.cols, 5u);
    EXPECT_EQ(q.at(2, 4), 64);
    const Matrix back = dequantize(q);
    EXPECT_EQ(back.rows(), 3u);
    EXPECT_FLOAT_EQ(back(0, 0), 0.25f);
}

/// Parameterised sweep: quantisation is monotone.
class FixedMonotoneTest : public ::testing::TestWithParam<float> {};

TEST_P(FixedMonotoneTest, Monotone) {
    const float v = GetParam();
    EXPECT_LE(float_to_fixed(v), float_to_fixed(v + 0.01f));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FixedMonotoneTest,
                         ::testing::Values(-100.0f, -1.0f, -0.004f, 0.0f, 0.004f,
                                           0.76f, 5.0f, 99.0f));

}  // namespace
}  // namespace fare
