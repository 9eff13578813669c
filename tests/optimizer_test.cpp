#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace fare {
namespace {

/// Minimise f(w) = 0.5 * ||w - target||^2 — gradient is (w - target).
void run_quadratic(Adam& opt, int steps, Matrix& w, const Matrix& target) {
    Matrix grad(w.rows(), w.cols());
    for (int s = 0; s < steps; ++s) {
        for (std::size_t i = 0; i < w.size(); ++i)
            grad.flat()[i] = w.flat()[i] - target.flat()[i];
        opt.step({&w}, {&grad});
    }
}

TEST(AdamTest, ConvergesOnQuadratic) {
    Adam adam(0.05f);
    Matrix w(2, 2, 0.0f);
    Matrix target{{1.0f, -2.0f}, {0.5f, 3.0f}};
    run_quadratic(adam, 400, w, target);
    EXPECT_LT(max_abs_diff(w, target), 0.05f);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
    // With bias correction, the very first Adam step is ~lr * sign(grad).
    Adam adam(0.01f);
    Matrix w(1, 1, 0.0f);
    Matrix grad(1, 1, 5.0f);
    adam.step({&w}, {&grad});
    EXPECT_NEAR(w(0, 0), -0.01f, 1e-4f);
}

TEST(AdamTest, ZeroGradientNoMove) {
    Adam adam(0.01f);
    Matrix w(1, 1, 1.0f);
    Matrix grad(1, 1, 0.0f);
    adam.step({&w}, {&grad});
    EXPECT_FLOAT_EQ(w(0, 0), 1.0f);
}

TEST(OptimizerTest, MultipleParamsIndependent) {
    Adam adam(0.01f);
    Matrix a(1, 1, 0.0f), b(1, 1, 0.0f);
    Matrix ga(1, 1, 1.0f), gb(1, 1, -1.0f);
    adam.step({&a, &b}, {&ga, &gb});
    EXPECT_LT(a(0, 0), 0.0f);
    EXPECT_GT(b(0, 0), 0.0f);
}

TEST(OptimizerTest, MismatchedSizesRejected) {
    Adam adam(0.01f);
    Matrix w(1, 1), g(1, 1);
    EXPECT_THROW(adam.step({&w}, {}), InvalidArgument);
}

TEST(OptimizerTest, RebindingDifferentModelRejected) {
    Adam adam(0.01f);
    Matrix w(1, 1), g(1, 1);
    adam.step({&w}, {&g});
    Matrix w2(1, 1), g2(1, 1);
    EXPECT_THROW(adam.step({&w, &w2}, {&g, &g2}), InvalidArgument);
}

TEST(OptimizerTest, InvalidLearningRateRejected) {
    EXPECT_THROW(Adam(-0.1f), InvalidArgument);
}

}  // namespace
}  // namespace fare
