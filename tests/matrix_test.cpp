#include "numeric/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.flat()) v = rng.uniform(-1.0f, 1.0f);
    return m;
}

TEST(MatrixTest, ConstructAndIndex) {
    Matrix m(2, 3, 1.5f);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
    m(0, 1) = 2.0f;
    EXPECT_FLOAT_EQ(m.at(0, 1), 2.0f);
}

TEST(MatrixTest, InitializerList) {
    Matrix m{{1.0f, 2.0f}, {3.0f, 4.0f}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_FLOAT_EQ(m(1, 0), 3.0f);
}

TEST(MatrixTest, RaggedInitializerRejected) {
    EXPECT_THROW((Matrix{{1.0f, 2.0f}, {3.0f}}), InvalidArgument);
}

TEST(MatrixTest, AtValidatesBounds) {
    Matrix m(2, 2);
    EXPECT_THROW(m.at(2, 0), InvalidArgument);
    EXPECT_THROW(m.at(0, 2), InvalidArgument);
}

TEST(MatrixTest, MatmulKnownValues) {
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5, 6}, {7, 8}};
    Matrix c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(MatrixTest, MatmulShapeValidated) {
    Matrix a(2, 3), b(2, 2);
    EXPECT_THROW(matmul(a, b), InvalidArgument);
}

TEST(MatrixTest, TransposedMatmulVariantsAgree) {
    Rng rng(5);
    const Matrix a = random_matrix(4, 6, rng);
    const Matrix b = random_matrix(4, 5, rng);
    // A^T B computed directly vs via explicit transpose.
    const Matrix expect = matmul(a.transposed(), b);
    const Matrix got = matmul_at_b(a, b);
    EXPECT_LT(max_abs_diff(expect, got), 1e-5f);

    const Matrix c = random_matrix(6, 5, rng);
    const Matrix d = random_matrix(7, 5, rng);
    const Matrix expect2 = matmul(c, d.transposed());
    const Matrix got2 = matmul_a_bt(c, d);
    EXPECT_LT(max_abs_diff(expect2, got2), 1e-5f);
}

TEST(MatrixTest, TransposeInvolution) {
    Rng rng(6);
    const Matrix a = random_matrix(3, 7, rng);
    EXPECT_EQ(a.transposed().transposed(), a);
}

TEST(MatrixTest, ArithmeticOperators) {
    Matrix a{{1, 2}};
    Matrix b{{3, 4}};
    a += b;
    EXPECT_FLOAT_EQ(a(0, 1), 6.0f);
    a -= b;
    EXPECT_FLOAT_EQ(a(0, 1), 2.0f);
    a *= 2.0f;
    EXPECT_FLOAT_EQ(a(0, 0), 2.0f);
}

TEST(MatrixTest, NormAndMaxAbs) {
    Matrix m{{3, 4}};
    EXPECT_FLOAT_EQ(m.norm(), 5.0f);
    EXPECT_FLOAT_EQ(m.max_abs(), 4.0f);
}

TEST(MatrixTest, XavierInitWithinLimit) {
    Rng rng(7);
    Matrix m(64, 32);
    m.xavier_init(rng);
    const float limit = std::sqrt(6.0f / (64 + 32));
    EXPECT_LE(m.max_abs(), limit);
    EXPECT_GT(m.norm(), 0.0f);
}

TEST(MatrixTest, MatmulAssociatesWithIdentity) {
    Rng rng(8);
    const Matrix a = random_matrix(5, 5, rng);
    Matrix eye(5, 5);
    for (std::size_t i = 0; i < 5; ++i) eye(i, i) = 1.0f;
    EXPECT_LT(max_abs_diff(matmul(a, eye), a), 1e-6f);
    EXPECT_LT(max_abs_diff(matmul(eye, a), a), 1e-6f);
}

}  // namespace
}  // namespace fare
