// Elementwise activations and their derivatives.
#pragma once

#include "numeric/matrix.hpp"

namespace fare {

/// y = max(0, x).
Matrix relu(const Matrix& x);
/// Gradient mask: g * 1[x > 0], where x is the pre-activation.
Matrix relu_backward(const Matrix& grad, const Matrix& pre);

/// y = x > 0 ? x : slope * x, and its derivative (GAT attention scores).
float leaky_relu_scalar(float x, float slope = 0.2f);
float leaky_relu_grad_scalar(float x, float slope = 0.2f);

/// Row-wise softmax (numerically stabilised).
Matrix softmax_rows(const Matrix& x);

}  // namespace fare
