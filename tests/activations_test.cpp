#include "nn/activations.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace fare {
namespace {

TEST(ActivationsTest, ReluClampsNegatives) {
    Matrix x{{-1.0f, 0.0f, 2.0f}};
    const Matrix y = relu(x);
    EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
}

TEST(ActivationsTest, ReluBackwardMasksByPreActivation) {
    Matrix pre{{-1.0f, 0.5f}};
    Matrix grad{{3.0f, 3.0f}};
    const Matrix g = relu_backward(grad, pre);
    EXPECT_FLOAT_EQ(g(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(g(0, 1), 3.0f);
}

TEST(ActivationsTest, LeakyReluSlope) {
    EXPECT_FLOAT_EQ(leaky_relu_scalar(-2.0f, 0.2f), -0.4f);
    EXPECT_FLOAT_EQ(leaky_relu_scalar(2.0f, 0.2f), 2.0f);
    EXPECT_FLOAT_EQ(leaky_relu_grad_scalar(-1.0f, 0.2f), 0.2f);
    EXPECT_FLOAT_EQ(leaky_relu_grad_scalar(1.0f, 0.2f), 1.0f);
}

TEST(ActivationsTest, SoftmaxRowsSumToOne) {
    Matrix x{{1.0f, 2.0f, 3.0f}, {-5.0f, 0.0f, 5.0f}};
    const Matrix y = softmax_rows(x);
    for (std::size_t r = 0; r < 2; ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_GT(y(r, c), 0.0f);
            sum += y(r, c);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-6f);
    }
}

TEST(ActivationsTest, SoftmaxStableForLargeLogits) {
    Matrix x{{1000.0f, 1001.0f}};
    const Matrix y = softmax_rows(x);
    EXPECT_FALSE(std::isnan(y(0, 0)));
    EXPECT_NEAR(y(0, 1), 1.0f / (1.0f + std::exp(-1.0f)), 1e-5f);
}

TEST(ActivationsTest, SoftmaxMonotone) {
    Matrix x{{0.0f, 1.0f, 2.0f}};
    const Matrix y = softmax_rows(x);
    EXPECT_LT(y(0, 0), y(0, 1));
    EXPECT_LT(y(0, 1), y(0, 2));
}

TEST(ActivationsTest, ReluBackwardShapeValidated) {
    Matrix pre(2, 2), grad(2, 3);
    EXPECT_THROW(relu_backward(grad, pre), InvalidArgument);
}

}  // namespace
}  // namespace fare
