#include "models/transformer/transformer_model.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"

namespace fare {

TransformerModel::TransformerModel(const TransformerConfig& config)
    : config_(config) {
    FARE_CHECK(config.num_blocks >= 1, "need at least one transformer block");
    FARE_CHECK(config.d_model >= 1 && config.ff_mult >= 1, "degenerate widths");
    const auto vocab = static_cast<std::size_t>(config.vocab_size);
    const auto len = static_cast<std::size_t>(config.seq_len);
    const auto classes = static_cast<std::size_t>(config.num_classes);
    const std::size_t d = config.d_model;
    const std::size_t ff = config.ff_mult * d;

    Rng rng(config.seed ^ 0x7F2AB1ULL);
    embed_ = Param(vocab, d, rng);
    pos_ = Param(len, d, rng);
    block_.resize(config.num_blocks);
    for (auto& b : block_) {
        b.wq = Param(d, d, rng);
        b.wk = Param(d, d, rng);
        b.wv = Param(d, d, rng);
        b.wo = Param(d, d, rng);
        b.w1 = Param(d, ff, rng);
        b.w2 = Param(ff, d, rng);
    }
    wc_ = Param(d, classes, rng);
}

std::vector<Param*> TransformerModel::params() {
    std::vector<Param*> out = {&embed_, &pos_};
    for (auto& b : block_)
        for (Param* p : {&b.wq, &b.wk, &b.wv, &b.wo, &b.w1, &b.w2}) out.push_back(p);
    out.push_back(&wc_);
    return out;
}

Matrix TransformerModel::forward(
    const std::vector<const std::vector<int>*>& batch_tokens) {
    const std::size_t batch = batch_tokens.size();
    const auto len = static_cast<std::size_t>(config_.seq_len);
    const std::size_t d = config_.d_model;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));

    cache_.assign(batch, SeqCache{});
    pooled_ = Matrix(batch, d);
    Matrix logits(batch, static_cast<std::size_t>(config_.num_classes));

    for (std::size_t s = 0; s < batch; ++s) {
        const std::vector<int>& toks = *batch_tokens[s];
        FARE_CHECK(toks.size() == len, "sequence length mismatch");
        SeqCache& sc = cache_[s];
        sc.tokens = batch_tokens[s];
        sc.blocks.resize(config_.num_blocks);

        Matrix x(len, d);
        for (std::size_t i = 0; i < len; ++i) {
            auto dst = x.row(i);
            auto emb = embed_.effective.row(static_cast<std::size_t>(toks[i]));
            auto pos = pos_.effective.row(i);
            for (std::size_t j = 0; j < d; ++j) dst[j] = emb[j] + pos[j];
        }

        for (std::size_t bi = 0; bi < config_.num_blocks; ++bi) {
            const BlockParams& w = block_[bi];
            BlockCache& bc = sc.blocks[bi];
            bc.x_in = x;
            bc.q = matmul(x, w.wq.effective);
            bc.k = matmul(x, w.wk.effective);
            bc.v = matmul(x, w.wv.effective);
            Matrix scores = matmul_a_bt(bc.q, bc.k);
            scores *= scale;
            bc.attn = softmax_rows(scores);
            bc.h = matmul(bc.attn, bc.v);
            bc.x1 = x;
            bc.x1 += matmul(bc.h, w.wo.effective);
            bc.u = matmul(bc.x1, w.w1.effective);
            bc.r = relu(bc.u);
            x = bc.x1;
            x += matmul(bc.r, w.w2.effective);
        }
        sc.x_out = x;

        auto pooled = pooled_.row(s);
        const float inv_len = 1.0f / static_cast<float>(len);
        for (std::size_t i = 0; i < len; ++i) {
            auto row = x.row(i);
            for (std::size_t j = 0; j < d; ++j) pooled[j] += row[j] * inv_len;
        }
        auto out = logits.row(s);
        for (std::size_t c = 0; c < logits.cols(); ++c) {
            float acc = 0.0f;
            for (std::size_t j = 0; j < d; ++j) acc += pooled[j] * wc_.effective(j, c);
            out[c] = acc;
        }
    }
    return logits;
}

void TransformerModel::backward(const Matrix& grad_logits) {
    FARE_CHECK(grad_logits.rows() == cache_.size(),
               "backward batch does not match the last forward");
    const auto len = static_cast<std::size_t>(config_.seq_len);
    const std::size_t d = config_.d_model;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    const float inv_len = 1.0f / static_cast<float>(len);

    for (std::size_t s = 0; s < cache_.size(); ++s) {
        SeqCache& sc = cache_[s];
        Matrix g(1, grad_logits.cols());
        {
            auto src = grad_logits.row(s);
            std::copy(src.begin(), src.end(), g.row(0).begin());
        }
        Matrix pooled(1, d);
        std::copy(pooled_.row(s).begin(), pooled_.row(s).end(), pooled.row(0).begin());

        wc_.grad += matmul_at_b(pooled, g);
        const Matrix dpooled = matmul_a_bt(g, wc_.effective);  // (1 x d)

        Matrix dx(len, d);
        for (std::size_t i = 0; i < len; ++i) {
            auto dst = dx.row(i);
            auto src = dpooled.row(0);
            for (std::size_t j = 0; j < d; ++j) dst[j] = src[j] * inv_len;
        }

        for (std::size_t bi = config_.num_blocks; bi-- > 0;) {
            BlockParams& w = block_[bi];
            BlockCache& bc = sc.blocks[bi];

            // X2 = X1 + relu(X1 W1) W2
            const Matrix& dm = dx;
            w.w2.grad += matmul_at_b(bc.r, dm);
            const Matrix dr = matmul_a_bt(dm, w.w2.effective);
            const Matrix du = relu_backward(dr, bc.u);
            w.w1.grad += matmul_at_b(bc.x1, du);
            Matrix dx1 = dx;
            dx1 += matmul_a_bt(du, w.w1.effective);

            // X1 = X + (A V) Wo
            const Matrix& dout = dx1;
            w.wo.grad += matmul_at_b(bc.h, dout);
            const Matrix dh = matmul_a_bt(dout, w.wo.effective);
            const Matrix da = matmul_a_bt(dh, bc.v);
            const Matrix dv = matmul_at_b(bc.attn, dh);

            // Softmax-rows backward: dS_ij = A_ij (dA_ij - sum_k dA_ik A_ik).
            Matrix ds(len, len);
            for (std::size_t i = 0; i < len; ++i) {
                auto a = bc.attn.row(i);
                auto dai = da.row(i);
                float dot = 0.0f;
                for (std::size_t j = 0; j < len; ++j) dot += dai[j] * a[j];
                auto out = ds.row(i);
                for (std::size_t j = 0; j < len; ++j) out[j] = a[j] * (dai[j] - dot);
            }
            Matrix dq = matmul(ds, bc.k);
            dq *= scale;
            Matrix dk = matmul_at_b(ds, bc.q);
            dk *= scale;

            w.wq.grad += matmul_at_b(bc.x_in, dq);
            w.wk.grad += matmul_at_b(bc.x_in, dk);
            w.wv.grad += matmul_at_b(bc.x_in, dv);

            Matrix dxin = dx1;  // residual path
            dxin += matmul_a_bt(dq, w.wq.effective);
            dxin += matmul_a_bt(dk, w.wk.effective);
            dxin += matmul_a_bt(dv, w.wv.effective);
            dx = std::move(dxin);
        }

        pos_.grad += dx;
        const std::vector<int>& toks = *sc.tokens;
        for (std::size_t i = 0; i < len; ++i) {
            auto dst = embed_.grad.row(static_cast<std::size_t>(toks[i]));
            auto src = dx.row(i);
            for (std::size_t j = 0; j < d; ++j) dst[j] += src[j];
        }
    }
}

}  // namespace fare
