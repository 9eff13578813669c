#include "nn/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace fare {

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
    FARE_CHECK(lr > 0.0f, "learning rate must be positive");
}

void Adam::step(const std::vector<Param*>& params) {
    if (m_.empty()) {
        for (const Param* p : params) {
            m_.emplace_back(p->value.rows(), p->value.cols());
            v_.emplace_back(p->value.rows(), p->value.cols());
        }
    }
    FARE_CHECK(m_.size() == params.size(), "optimizer bound to different model");
    ++t_;
    const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
    for (std::size_t i = 0; i < params.size(); ++i) {
        auto p = params[i]->value.flat();
        auto g = params[i]->grad.flat();
        auto m = m_[i].flat();
        auto v = v_[i].flat();
        for (std::size_t j = 0; j < p.size(); ++j) {
            m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
            v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
            const float mhat = m[j] / bc1;
            const float vhat = v[j] / bc2;
            p[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
        }
    }
}

}  // namespace fare
