// GNN layer interface.
//
// Every weight of a layer is an nn/param.hpp Param: the forward/backward
// computation reads its *effective* copy — what the faulty crossbars
// actually return after corruption and clipping — and accumulates into its
// gradient, which the host-resident optimizer applies to the *logical*
// value (paper §III-A).
#pragma once

#include <memory>
#include <vector>

#include "models/gnn/batch_view.hpp"
#include "nn/param.hpp"
#include "nn/train_types.hpp"

namespace fare {

class Rng;

class Layer {
public:
    virtual ~Layer() = default;

    /// Forward pass; caches whatever backward needs.
    virtual Matrix forward(const Matrix& x, const BatchGraphView& g) = 0;

    /// Backward pass for the most recent forward on the same view.
    /// Accumulates parameter gradients and returns grad w.r.t. the input.
    virtual Matrix backward(const Matrix& grad_out, const BatchGraphView& g) = 0;

    /// The layer's weights, in a stable order (the crossbar bind order).
    virtual std::vector<Param*> params() = 0;
};

/// Graph Convolutional Network layer: Y = act(A_gcn (X W)).
std::unique_ptr<Layer> make_gcn_layer(std::size_t in, std::size_t out, bool with_relu,
                                      Rng& rng);

/// Graph Attention layer (single head): Y = act(sum_j alpha_ij (X W)_j).
std::unique_ptr<Layer> make_gat_layer(std::size_t in, std::size_t out, bool with_relu,
                                      Rng& rng);

/// GraphSAGE layer (mean aggregator): Y = act(X W_self + (A_mean X) W_neigh).
std::unique_ptr<Layer> make_sage_layer(std::size_t in, std::size_t out, bool with_relu,
                                       Rng& rng);

}  // namespace fare
