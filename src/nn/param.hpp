// One trainable matrix of any model family, as on-chip training with a
// host-resident optimizer sees it (paper §III-A): the *logical* value the
// optimizer updates, the gradient, and the *effective* copy the forward and
// backward passes read — what the (possibly faulty) crossbars return for
// the value, refreshed by TrainLoop before every batch and equal to the
// value on ideal hardware. Gradients are taken w.r.t. the effective weights
// (that is what the analog tiles differentiate through) and applied to the
// value.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/matrix.hpp"

namespace fare {

class Rng;

struct Param {
    Param() = default;
    /// Xavier-initialised value drawn from `rng`, zero gradient, effective
    /// copy equal to the value.
    Param(std::size_t rows, std::size_t cols, Rng& rng)
        : value(rows, cols), grad(rows, cols) {
        value.xavier_init(rng);
        effective = value;
    }

    Matrix value, grad, effective;
};

inline void zero_grads(const std::vector<Param*>& params) {
    for (Param* p : params) p->grad.fill(0.0f);
}

/// Copy value -> effective (ideal hardware).
inline void sync_effective(const std::vector<Param*>& params) {
    for (Param* p : params) p->effective = p->value;
}

}  // namespace fare
