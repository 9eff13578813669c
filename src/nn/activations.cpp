#include "nn/activations.hpp"

#include <cmath>

#include "common/error.hpp"

namespace fare {

Matrix relu(const Matrix& x) {
    Matrix y = x;
    for (auto& v : y.flat()) v = v > 0.0f ? v : 0.0f;
    return y;
}

Matrix relu_backward(const Matrix& grad, const Matrix& pre) {
    FARE_CHECK(grad.rows() == pre.rows() && grad.cols() == pre.cols(),
               "relu_backward shape mismatch");
    Matrix g = grad;
    auto p = pre.flat();
    auto out = g.flat();
    for (std::size_t i = 0; i < out.size(); ++i)
        if (p[i] <= 0.0f) out[i] = 0.0f;
    return g;
}

float leaky_relu_scalar(float x, float slope) {
    return x > 0.0f ? x : slope * x;
}

float leaky_relu_grad_scalar(float x, float slope) {
    return x > 0.0f ? 1.0f : slope;
}

Matrix softmax_rows(const Matrix& x) {
    Matrix y(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        auto in = x.row(r);
        auto out = y.row(r);
        float mx = in[0];
        for (float v : in) mx = std::max(mx, v);
        float sum = 0.0f;
        for (std::size_t c = 0; c < in.size(); ++c) {
            out[c] = std::exp(in[c] - mx);
            sum += out[c];
        }
        const float inv = 1.0f / sum;
        for (auto& v : out) v *= inv;
    }
    return y;
}

}  // namespace fare
