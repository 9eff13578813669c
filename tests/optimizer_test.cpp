#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace fare {
namespace {

/// A 1x1 parameter with the given value and gradient.
Param scalar_param(float value, float grad) {
    Param p;
    p.value = Matrix(1, 1, value);
    p.grad = Matrix(1, 1, grad);
    return p;
}

/// Minimise f(w) = 0.5 * ||w - target||^2 — gradient is (w - target).
void run_quadratic(Adam& opt, int steps, Param& w, const Matrix& target) {
    w.grad = Matrix(w.value.rows(), w.value.cols());
    for (int s = 0; s < steps; ++s) {
        for (std::size_t i = 0; i < w.value.size(); ++i)
            w.grad.flat()[i] = w.value.flat()[i] - target.flat()[i];
        opt.step({&w});
    }
}

TEST(AdamTest, ConvergesOnQuadratic) {
    Adam adam(0.05f);
    Param w;
    w.value = Matrix(2, 2, 0.0f);
    Matrix target{{1.0f, -2.0f}, {0.5f, 3.0f}};
    run_quadratic(adam, 400, w, target);
    EXPECT_LT(max_abs_diff(w.value, target), 0.05f);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
    // With bias correction, the very first Adam step is ~lr * sign(grad).
    Adam adam(0.01f);
    Param w = scalar_param(0.0f, 5.0f);
    adam.step({&w});
    EXPECT_NEAR(w.value(0, 0), -0.01f, 1e-4f);
}

TEST(AdamTest, ZeroGradientNoMove) {
    Adam adam(0.01f);
    Param w = scalar_param(1.0f, 0.0f);
    adam.step({&w});
    EXPECT_FLOAT_EQ(w.value(0, 0), 1.0f);
}

TEST(OptimizerTest, MultipleParamsIndependent) {
    Adam adam(0.01f);
    Param a = scalar_param(0.0f, 1.0f), b = scalar_param(0.0f, -1.0f);
    adam.step({&a, &b});
    EXPECT_LT(a.value(0, 0), 0.0f);
    EXPECT_GT(b.value(0, 0), 0.0f);
}

TEST(OptimizerTest, RebindingDifferentModelRejected) {
    Adam adam(0.01f);
    Param w = scalar_param(0.0f, 0.0f);
    adam.step({&w});
    Param w2 = scalar_param(0.0f, 0.0f);
    EXPECT_THROW(adam.step({&w, &w2}), InvalidArgument);
}

TEST(OptimizerTest, InvalidLearningRateRejected) {
    EXPECT_THROW(Adam(-0.1f), InvalidArgument);
}

}  // namespace
}  // namespace fare
