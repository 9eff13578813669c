// GraphSAGE layer with mean aggregator (Hamilton et al.):
//   Y = act(X W_self + (A_mean X) W_neigh)
// A_mean = D^-1 (A + I). Both weight matrices live on weight crossbars; the
// mean aggregation runs on the adjacency crossbars.
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "models/gnn/layers.hpp"

namespace fare {

namespace {

class SAGELayer final : public Layer {
public:
    SAGELayer(std::size_t in, std::size_t out, bool with_relu, Rng& rng)
        : with_relu_(with_relu), w_self_(in, out, rng), w_neigh_(in, out, rng) {}

    Matrix forward(const Matrix& x, const BatchGraphView& g) override {
        x_ = x;
        m_ = g.mean_multiply(x);  // aggregation phase
        pre_ = matmul(x, w_self_.effective);
        pre_ += matmul(m_, w_neigh_.effective);  // combination phase
        return with_relu_ ? relu(pre_) : pre_;
    }

    Matrix backward(const Matrix& grad_out, const BatchGraphView& g) override {
        const Matrix g_pre =
            with_relu_ ? relu_backward(grad_out, pre_) : grad_out;
        w_self_.grad += matmul_at_b(x_, g_pre);
        w_neigh_.grad += matmul_at_b(m_, g_pre);
        Matrix g_x = matmul_a_bt(g_pre, w_self_.effective);
        g_x += g.mean_multiply_t(matmul_a_bt(g_pre, w_neigh_.effective));
        return g_x;
    }

    std::vector<Param*> params() override { return {&w_self_, &w_neigh_}; }

private:
    bool with_relu_;
    Param w_self_, w_neigh_;  // declared in Xavier draw order
    Matrix x_, m_, pre_;  // forward caches
};

}  // namespace

std::unique_ptr<Layer> make_sage_layer(std::size_t in, std::size_t out, bool with_relu,
                                       Rng& rng) {
    return std::make_unique<SAGELayer>(in, out, with_relu, rng);
}

}  // namespace fare
