#include "models/gnn/model.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {

Model::Model(const ModelConfig& config) : config_(config) {
    FARE_CHECK(config.num_layers >= 1, "model needs at least one layer");
    Rng rng(config.seed);
    auto make = [&](std::size_t in, std::size_t out, bool act) {
        switch (config_.kind) {
            case GnnKind::kGCN: return make_gcn_layer(in, out, act, rng);
            case GnnKind::kGAT: return make_gat_layer(in, out, act, rng);
            case GnnKind::kSAGE: return make_sage_layer(in, out, act, rng);
        }
        throw InvalidArgument("unknown GNN kind (expected GCN | GAT | SAGE)");
    };
    for (std::size_t l = 0; l < config.num_layers; ++l) {
        const std::size_t in = (l == 0) ? config.in_features : config.hidden;
        const std::size_t out =
            (l + 1 == config.num_layers) ? config.num_classes : config.hidden;
        const bool act = l + 1 != config.num_layers;  // no activation on logits
        layers_.push_back(make(in, out, act));
    }
}

std::vector<Param*> Model::params() {
    std::vector<Param*> out;
    for (auto& l : layers_)
        for (Param* p : l->params()) out.push_back(p);
    return out;
}

Matrix Model::forward(const Matrix& x, const BatchGraphView& g) {
    Matrix h = x;
    for (auto& l : layers_) h = l->forward(h, g);
    return h;
}

void Model::backward(const Matrix& grad_logits, const BatchGraphView& g) {
    Matrix grad = grad_logits;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        grad = (*it)->backward(grad, g);
}

}  // namespace fare
