// The optimizer (Adam; TrainLoop runs it for every model family). Its state
// lives on the host (paper §III-A: pipelined training with host-resident
// weight update logic); it updates the *logical* weights, which are then
// (re)programmed onto the faulty crossbars.
#pragma once

#include <vector>

#include "nn/param.hpp"

namespace fare {

/// Adam (Kingma & Ba) with bias correction.
class Adam {
public:
    explicit Adam(float lr = 0.01f, float beta1 = 0.9f, float beta2 = 0.999f,
                  float eps = 1e-8f);
    /// Apply one update step to every param's value from its gradient.
    void step(const std::vector<Param*>& params);

private:
    float lr_, beta1_, beta2_, eps_;
    std::vector<Matrix> m_, v_;
    long t_ = 0;
};

}  // namespace fare
