// Graph Attention layer, single head (Veličković et al.):
//   h_i = (X W)_i
//   e_ij = LeakyReLU(a_src . h_i + a_dst . h_j)   for j in N(i) u {i}
//   alpha_ij = softmax_j(e_ij)
//   Y_i = act(sum_j alpha_ij h_j)
//
// The full backward pass is hand-derived (verified against finite
// differences in tests/gnn_layers_test.cpp): gradients flow through the
// aggregation weights alpha, the attention logits and both attention
// vectors.
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "models/gnn/layers.hpp"

namespace fare {

namespace {

constexpr float kAttnSlope = 0.2f;

class GATLayer final : public Layer {
public:
    GATLayer(std::size_t in, std::size_t out, bool with_relu, Rng& rng)
        : with_relu_(with_relu),
          w_(in, out, rng),
          a_src_(1, out, rng),
          a_dst_(1, out, rng) {}

    Matrix forward(const Matrix& x, const BatchGraphView& g) override {
        const std::size_t n = g.num_nodes();
        x_ = x;
        h_ = matmul(x, w_.effective);  // combination phase on weight crossbars
        const std::size_t d = h_.cols();

        const Matrix& a_src = a_src_.effective;
        const Matrix& a_dst = a_dst_.effective;
        s_.assign(n, 0.0f);
        t_.assign(n, 0.0f);
        for (std::size_t i = 0; i < n; ++i) {
            auto hrow = h_.row(i);
            float s = 0.0f, t = 0.0f;
            for (std::size_t k = 0; k < d; ++k) {
                s += a_src(0, k) * hrow[k];
                t += a_dst(0, k) * hrow[k];
            }
            s_[i] = s;
            t_[i] = t;
        }

        auto offsets = g.offsets();
        z_.assign(offsets.back(), 0.0f);
        alpha_.assign(offsets.back(), 0.0f);
        Matrix pre(n, d);
        for (std::size_t i = 0; i < n; ++i) {
            auto nbrs = g.row_neighbors(i);
            const std::size_t base = offsets[i];
            float mx = -1e30f;
            for (std::size_t e = 0; e < nbrs.size(); ++e) {
                const float z = s_[i] + t_[nbrs[e]];
                z_[base + e] = z;
                const float lz = leaky_relu_scalar(z, kAttnSlope);
                alpha_[base + e] = lz;
                mx = std::max(mx, lz);
            }
            float sum = 0.0f;
            for (std::size_t e = 0; e < nbrs.size(); ++e) {
                alpha_[base + e] = std::exp(alpha_[base + e] - mx);
                sum += alpha_[base + e];
            }
            const float inv = sum > 0.0f ? 1.0f / sum : 0.0f;
            auto prow = pre.row(i);
            for (std::size_t e = 0; e < nbrs.size(); ++e) {
                alpha_[base + e] *= inv;
                auto hrow = h_.row(nbrs[e]);
                const float a = alpha_[base + e];
                for (std::size_t k = 0; k < d; ++k) prow[k] += a * hrow[k];
            }
        }
        pre_ = std::move(pre);
        return with_relu_ ? relu(pre_) : pre_;
    }

    Matrix backward(const Matrix& grad_out, const BatchGraphView& g) override {
        const std::size_t n = g.num_nodes();
        const std::size_t d = h_.cols();
        const Matrix g_pre =
            with_relu_ ? relu_backward(grad_out, pre_) : grad_out;

        Matrix g_h(n, d);
        std::vector<float> g_s(n, 0.0f);
        std::vector<float> g_t(n, 0.0f);
        auto offsets = g.offsets();

        std::vector<float> g_alpha;
        for (std::size_t i = 0; i < n; ++i) {
            auto nbrs = g.row_neighbors(i);
            const std::size_t base = offsets[i];
            auto grow = g_pre.row(i);

            // dL/dalpha_ij = g_i . h_j ; dL/dh_j += alpha_ij g_i
            g_alpha.assign(nbrs.size(), 0.0f);
            for (std::size_t e = 0; e < nbrs.size(); ++e) {
                auto hrow = h_.row(nbrs[e]);
                auto ghrow = g_h.row(nbrs[e]);
                const float a = alpha_[base + e];
                float dot = 0.0f;
                for (std::size_t k = 0; k < d; ++k) {
                    dot += grow[k] * hrow[k];
                    ghrow[k] += a * grow[k];
                }
                g_alpha[e] = dot;
            }
            // Softmax backward: dL/de = alpha * (dL/dalpha - sum_k alpha_k dL/dalpha_k)
            float inner = 0.0f;
            for (std::size_t e = 0; e < nbrs.size(); ++e)
                inner += alpha_[base + e] * g_alpha[e];
            for (std::size_t e = 0; e < nbrs.size(); ++e) {
                const float g_e = alpha_[base + e] * (g_alpha[e] - inner);
                const float g_z =
                    g_e * leaky_relu_grad_scalar(z_[base + e], kAttnSlope);
                g_s[i] += g_z;
                g_t[nbrs[e]] += g_z;
            }
        }

        // s_i = a_src . h_i, t_i = a_dst . h_i
        const Matrix& a_src = a_src_.effective;
        const Matrix& a_dst = a_dst_.effective;
        for (std::size_t i = 0; i < n; ++i) {
            auto hrow = h_.row(i);
            auto ghrow = g_h.row(i);
            for (std::size_t k = 0; k < d; ++k) {
                a_src_.grad(0, k) += g_s[i] * hrow[k];
                a_dst_.grad(0, k) += g_t[i] * hrow[k];
                ghrow[k] += g_s[i] * a_src(0, k) + g_t[i] * a_dst(0, k);
            }
        }

        w_.grad += matmul_at_b(x_, g_h);
        return matmul_a_bt(g_h, w_.effective);
    }

    std::vector<Param*> params() override { return {&w_, &a_src_, &a_dst_}; }

private:
    bool with_relu_;
    Param w_, a_src_, a_dst_;  // declared in Xavier draw order
    // forward caches
    Matrix x_, h_, pre_;
    std::vector<float> s_, t_, z_, alpha_;
};

}  // namespace

std::unique_ptr<Layer> make_gat_layer(std::size_t in, std::size_t out, bool with_relu,
                                      Rng& rng) {
    return std::make_unique<GATLayer>(in, out, with_relu, rng);
}

}  // namespace fare
