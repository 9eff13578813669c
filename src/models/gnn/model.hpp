// A GNN model: a stack of layers of one kind (GCN / GAT / SAGE), matching
// the paper's per-dataset workloads (Table II).
#pragma once

#include <memory>
#include <vector>

#include "models/gnn/layers.hpp"

namespace fare {

struct ModelConfig {
    GnnKind kind = GnnKind::kGCN;
    std::size_t in_features = 32;
    std::size_t hidden = 32;
    std::size_t num_classes = 8;
    std::size_t num_layers = 2;
    std::uint64_t seed = 1;
};

class Model {
public:
    explicit Model(const ModelConfig& config);

    const ModelConfig& config() const { return config_; }
    std::size_t num_layers() const { return layers_.size(); }
    Layer& layer(std::size_t i) { return *layers_[i]; }

    /// Every layer's weights, layer by layer (the stable indexing the
    /// hardware model binds).
    std::vector<Param*> params();

    /// Forward through all layers; logits out.
    Matrix forward(const Matrix& x, const BatchGraphView& g);

    /// Backward from d loss / d logits.
    void backward(const Matrix& grad_logits, const BatchGraphView& g);

private:
    ModelConfig config_;
    std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace fare
