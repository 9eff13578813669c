// Minimal decoder-free transformer classifier for the crossbar fabric.
//
// Architecture (single attention head per block, no LayerNorm — the scaled
// residual stream stays well-conditioned at this depth and keeping every
// parameter a plain matrix means *all* of them live on crossbars):
//
//   X0   = Embed[tokens] + Pos
//   per block: X1 = X + softmax(X Wq (X Wk)^T / sqrt(d)) (X Wv) Wo
//              X2 = X1 + relu(X1 W1) W2
//   logits = mean_rows(X_last) Wc
//
// Every parameter is an nn/param.hpp Param, as in the GNN layers: forward
// and backward read its effective copy, refreshed from the hardware model
// before each batch, and the gradients go to the logical value (on-device
// training with a host-resident optimizer).
// GEMMs go through numeric/matrix.hpp and therefore the PR 8 SIMD kernel
// tables; the attention softmax runs on the host (special-function units in
// the accelerator model).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/param.hpp"

namespace fare {

struct TransformerConfig {
    int vocab_size = 64;
    int seq_len = 16;
    int num_classes = 4;
    std::size_t d_model = 32;
    std::size_t num_blocks = 2;
    std::size_t ff_mult = 2;  ///< d_ff = ff_mult * d_model
    std::uint64_t seed = 1;
};

class TransformerModel {
public:
    explicit TransformerModel(const TransformerConfig& config);

    /// Parameter order (stable; this is the crossbar bind order):
    /// embed, pos, then per block {Wq, Wk, Wv, Wo, W1, W2}, then Wc.
    std::vector<Param*> params();

    /// Forward a batch of token sequences with the current effective weights;
    /// returns (batch x classes) logits and caches activations for backward.
    Matrix forward(const std::vector<const std::vector<int>*>& batch_tokens);

    /// Backward for the most recent forward; accumulates parameter grads.
    void backward(const Matrix& grad_logits);

    const TransformerConfig& config() const { return config_; }

private:
    struct BlockParams {
        Param wq, wk, wv, wo, w1, w2;
    };
    struct BlockCache {
        Matrix x_in, q, k, v, attn, h, x1, u, r;
    };
    struct SeqCache {
        std::vector<BlockCache> blocks;
        Matrix x_out;
        const std::vector<int>* tokens = nullptr;
    };

    TransformerConfig config_;
    Param embed_, pos_, wc_;
    std::vector<BlockParams> block_;

    std::vector<SeqCache> cache_;
    Matrix pooled_;  ///< (batch x d) mean-pooled final states
};

}  // namespace fare
