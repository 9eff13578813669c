// Finite-difference gradient checks for all three layer types and the
// stacked model. The GAT backward pass in particular (attention softmax +
// LeakyReLU + both attention vectors) is hand-derived, so these tests are
// the ground truth for its correctness.
#include "models/gnn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.hpp"
#include "models/gnn/model.hpp"

namespace fare {
namespace {

BatchGraphView small_view(Rng& rng, std::size_t n = 7, double p = 0.4) {
    BitMatrix adj(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            if (r != c && rng.next_bool(p)) adj.set(r, c, 1);
    return BatchGraphView::from_bits(adj);
}

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.flat()) v = rng.uniform(-0.8f, 0.8f);
    return m;
}

/// Scalar loss L = sum(R .* Y) so dL/dY = R exactly.
float probe_loss(const Matrix& y, const Matrix& r) {
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
        acc += static_cast<double>(y.flat()[i]) * r.flat()[i];
    return static_cast<float>(acc);
}

/// Compare analytic gradient of `target` against central differences.
void check_gradient(Layer& layer, const BatchGraphView& g, Matrix& x,
                    const Matrix& probe, Matrix* target, const Matrix& analytic,
                    float tol) {
    const float eps = 1e-2f;
    for (std::size_t i = 0; i < target->size(); ++i) {
        const float saved = target->flat()[i];
        target->flat()[i] = saved + eps;
        sync_effective(layer.params());
        const float hi = probe_loss(layer.forward(x, g), probe);
        target->flat()[i] = saved - eps;
        sync_effective(layer.params());
        const float lo = probe_loss(layer.forward(x, g), probe);
        target->flat()[i] = saved;
        sync_effective(layer.params());
        const float numeric = (hi - lo) / (2 * eps);
        EXPECT_NEAR(analytic.flat()[i], numeric,
                    tol + 0.05f * std::fabs(numeric))
            << "param element " << i;
    }
}

struct LayerCase {
    const char* name;
    std::function<std::unique_ptr<Layer>(std::size_t, std::size_t, bool, Rng&)> make;
};

class LayerGradientTest : public ::testing::TestWithParam<LayerCase> {};

TEST_P(LayerGradientTest, WeightGradientsMatchFiniteDifference) {
    Rng rng(101);
    const std::size_t n = 7, in = 5, out = 4;
    const BatchGraphView g = small_view(rng, n);
    Matrix x = random_matrix(n, in, rng);
    auto layer = GetParam().make(in, out, /*with_relu=*/false, rng);
    const Matrix probe = random_matrix(n, out, rng);

    const auto params = layer->params();
    sync_effective(params);
    zero_grads(params);
    layer->forward(x, g);
    layer->backward(probe, g);

    for (Param* p : params) {
        const Matrix analytic = p->grad;
        check_gradient(*layer, g, x, probe, &p->value, analytic, 0.02f);
    }
}

TEST_P(LayerGradientTest, InputGradientMatchesFiniteDifference) {
    Rng rng(202);
    const std::size_t n = 6, in = 4, out = 3;
    const BatchGraphView g = small_view(rng, n);
    Matrix x = random_matrix(n, in, rng);
    auto layer = GetParam().make(in, out, /*with_relu=*/false, rng);
    const Matrix probe = random_matrix(n, out, rng);

    sync_effective(layer->params());
    zero_grads(layer->params());
    layer->forward(x, g);
    const Matrix gx = layer->backward(probe, g);

    const float eps = 1e-2f;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const float saved = x.flat()[i];
        x.flat()[i] = saved + eps;
        const float hi = probe_loss(layer->forward(x, g), probe);
        x.flat()[i] = saved - eps;
        const float lo = probe_loss(layer->forward(x, g), probe);
        x.flat()[i] = saved;
        const float numeric = (hi - lo) / (2 * eps);
        EXPECT_NEAR(gx.flat()[i], numeric, 0.02f + 0.05f * std::fabs(numeric))
            << "input element " << i;
    }
}

TEST_P(LayerGradientTest, ReluVariantGradients) {
    Rng rng(303);
    const std::size_t n = 6, in = 4, out = 3;
    const BatchGraphView g = small_view(rng, n);
    Matrix x = random_matrix(n, in, rng);
    auto layer = GetParam().make(in, out, /*with_relu=*/true, rng);
    const Matrix probe = random_matrix(n, out, rng);

    const auto params = layer->params();
    sync_effective(params);
    zero_grads(params);
    layer->forward(x, g);
    layer->backward(probe, g);
    // ReLU kinks make central differences locally unreliable (the numeric
    // estimate straddles the non-differentiable point), so require 90% of
    // elements to agree instead of all of them.
    Matrix* target = &params[0]->value;
    const Matrix analytic = params[0]->grad;
    const float eps = 3e-3f;  // small: fewer perturbations straddle a kink
    std::size_t agree = 0;
    for (std::size_t i = 0; i < target->size(); ++i) {
        const float saved = target->flat()[i];
        target->flat()[i] = saved + eps;
        sync_effective(params);
        const float hi = probe_loss(layer->forward(x, g), probe);
        target->flat()[i] = saved - eps;
        sync_effective(params);
        const float lo = probe_loss(layer->forward(x, g), probe);
        target->flat()[i] = saved;
        sync_effective(params);
        const float numeric = (hi - lo) / (2 * eps);
        if (std::fabs(analytic.flat()[i] - numeric) <=
            0.03f + 0.05f * std::fabs(numeric))
            ++agree;
    }
    EXPECT_GE(static_cast<double>(agree),
              0.9 * static_cast<double>(target->size()));
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, LayerGradientTest,
    ::testing::Values(
        LayerCase{"GCN",
                  [](std::size_t i, std::size_t o, bool a, Rng& r) {
                      return make_gcn_layer(i, o, a, r);
                  }},
        LayerCase{"GAT",
                  [](std::size_t i, std::size_t o, bool a, Rng& r) {
                      return make_gat_layer(i, o, a, r);
                  }},
        LayerCase{"SAGE",
                  [](std::size_t i, std::size_t o, bool a, Rng& r) {
                      return make_sage_layer(i, o, a, r);
                  }}),
    [](const ::testing::TestParamInfo<LayerCase>& info) {
        return std::string(info.param.name);
    });

TEST(LayerTest, EffectiveParamsDecoupledFromLogical) {
    Rng rng(7);
    auto layer = make_gcn_layer(3, 2, false, rng);
    auto params = layer->params();
    ASSERT_EQ(params.size(), 1u);
    // Mutate effective copy only: forward must use it, logical unchanged.
    const BatchGraphView g = small_view(rng, 4);
    Matrix x(4, 3, 1.0f);
    params[0]->effective.fill(0.0f);
    const Matrix y = layer->forward(x, g);
    EXPECT_FLOAT_EQ(y.max_abs(), 0.0f);
    EXPECT_GT(params[0]->value.max_abs(), 0.0f);
}

TEST(ModelTest, ForwardShapeAndParamCount) {
    ModelConfig mc;
    mc.kind = GnnKind::kSAGE;
    mc.in_features = 6;
    mc.hidden = 5;
    mc.num_classes = 3;
    mc.num_layers = 2;
    Model model(mc);
    EXPECT_EQ(model.num_layers(), 2u);
    EXPECT_EQ(model.params().size(), 4u);  // 2 weight matrices per SAGE layer
    std::size_t weights = 0;
    for (const Param* p : model.params()) weights += p->value.size();
    EXPECT_EQ(weights, 6u * 5 + 6u * 5 + 5u * 3 + 5u * 3);

    Rng rng(5);
    const BatchGraphView g = small_view(rng, 8);
    const Matrix y = model.forward(random_matrix(8, 6, rng), g);
    EXPECT_EQ(y.rows(), 8u);
    EXPECT_EQ(y.cols(), 3u);
}

TEST(ModelTest, StackedModelGradientMatchesFiniteDifference) {
    ModelConfig mc;
    mc.kind = GnnKind::kGCN;
    mc.in_features = 4;
    mc.hidden = 3;
    mc.num_classes = 2;
    mc.seed = 11;
    Model model(mc);
    Rng rng(13);
    const BatchGraphView g = small_view(rng, 6);
    Matrix x = random_matrix(6, 4, rng);
    const Matrix probe = random_matrix(6, 2, rng);

    const auto params = model.params();
    sync_effective(params);
    zero_grads(params);
    model.forward(x, g);
    model.backward(probe, g);

    const float eps = 1e-2f;
    for (Param* p : params) {
        for (std::size_t i = 0; i < p->value.size(); i += 3) {  // sample
            const float saved = p->value.flat()[i];
            p->value.flat()[i] = saved + eps;
            sync_effective(params);
            const float hi = probe_loss(model.forward(x, g), probe);
            p->value.flat()[i] = saved - eps;
            sync_effective(params);
            const float lo = probe_loss(model.forward(x, g), probe);
            p->value.flat()[i] = saved;
            sync_effective(params);
            const float numeric = (hi - lo) / (2 * eps);
            EXPECT_NEAR(p->grad.flat()[i], numeric,
                        0.02f + 0.05f * std::fabs(numeric));
        }
    }
}

TEST(ModelTest, KindNames) {
    EXPECT_STREQ(gnn_kind_name(GnnKind::kGCN), "GCN");
    EXPECT_STREQ(gnn_kind_name(GnnKind::kGAT), "GAT");
    EXPECT_STREQ(gnn_kind_name(GnnKind::kSAGE), "SAGE");
}

}  // namespace
}  // namespace fare
