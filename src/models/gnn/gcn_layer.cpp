// GCN layer: Y = act(A_gcn (X W)) with A_gcn = D^-1/2 (A + I) D^-1/2
// (Kipf & Welling). The two matmuls are exactly the paper's combination
// (X W on weight crossbars) and aggregation (A_gcn * on adjacency crossbars)
// phases.
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "models/gnn/layers.hpp"

namespace fare {

namespace {

class GCNLayer final : public Layer {
public:
    GCNLayer(std::size_t in, std::size_t out, bool with_relu, Rng& rng)
        : with_relu_(with_relu), w_(in, out, rng) {}

    Matrix forward(const Matrix& x, const BatchGraphView& g) override {
        x_ = x;
        const Matrix h = matmul(x, w_.effective);  // combination phase
        pre_ = g.gcn_multiply(h);                   // aggregation phase
        return with_relu_ ? relu(pre_) : pre_;
    }

    Matrix backward(const Matrix& grad_out, const BatchGraphView& g) override {
        const Matrix g_pre =
            with_relu_ ? relu_backward(grad_out, pre_) : grad_out;
        const Matrix g_h = g.gcn_multiply_t(g_pre);
        w_.grad += matmul_at_b(x_, g_h);
        return matmul_a_bt(g_h, w_.effective);
    }

    std::vector<Param*> params() override { return {&w_}; }

private:
    bool with_relu_;
    Param w_;
    Matrix x_, pre_;  // forward caches
};

}  // namespace

std::unique_ptr<Layer> make_gcn_layer(std::size_t in, std::size_t out, bool with_relu,
                                      Rng& rng) {
    return std::make_unique<GCNLayer>(in, out, with_relu, rng);
}

}  // namespace fare
