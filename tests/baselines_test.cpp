#include "fare/baselines.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace fare {
namespace {

FaultyHardwareConfig test_config(double density, double sa1) {
    FaultyHardwareConfig cfg;
    cfg.hardware.num_tiles = 1;
    cfg.faults.density = density;
    cfg.faults.sa1_fraction = sa1;
    cfg.seed = 77;
    return cfg;
}

/// A small parameter set mimicking a 2-layer GCN.
std::vector<Matrix> make_params(Rng& rng) {
    std::vector<Matrix> params;
    params.emplace_back(32, 32);
    params.emplace_back(32, 8);
    for (auto& p : params) p.xavier_init(rng);
    return params;
}

std::vector<Matrix*> pointers(std::vector<Matrix>& params) {
    std::vector<Matrix*> out;
    for (auto& p : params) out.push_back(&p);
    return out;
}

BitMatrix random_batch(std::size_t n, Rng& rng) {
    BitMatrix adj(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = r + 1; c < n; ++c)
            if (rng.next_bool(0.05)) {
                adj.set(r, c, 1);
                adj.set(c, r, 1);
            }
    return adj;
}

TEST(IdealHardwareTest, QuantizesOnly) {
    IdealQuantizedHardware hw;
    Matrix w{{0.126f, -0.374f}};
    const Matrix out = hw.effective_weights(0, w);
    EXPECT_LE(max_abs_diff(out, w), kFixedStep / 2 + 1e-6f);
}

TEST(FaultyHardwareTest, FaultFreeSchemeRejected) {
    EXPECT_THROW(FaultyHardware(Scheme::kFaultFree, test_config(0.01, 0.1)),
                 InvalidArgument);
}

TEST(FaultyHardwareTest, FactoryCoversAllSchemes) {
    for (Scheme s : {Scheme::kFaultFree, Scheme::kFaultUnaware,
                     Scheme::kNeuronReorder, Scheme::kClippingOnly, Scheme::kFARe}) {
        auto hw = make_hardware(s, test_config(0.01, 0.1));
        ASSERT_NE(hw, nullptr);
    }
}

TEST(FaultyHardwareTest, UnawareCorruptsWeightsUnbounded) {
    Rng rng(1);
    auto params = make_params(rng);
    FaultyHardware hw(Scheme::kFaultUnaware, test_config(0.05, 0.5));
    hw.bind_params(pointers(params));
    float worst = 0.0f;
    for (std::size_t i = 0; i < params.size(); ++i)
        worst = std::max(worst, hw.effective_weights(i, params[i]).max_abs());
    // With 5% faults at 1:1 over two matrices, some MSB SA1 explosion is
    // essentially certain.
    EXPECT_GT(worst, 10.0f);
}

TEST(FaultyHardwareTest, FareClipsWeights) {
    Rng rng(2);
    auto params = make_params(rng);
    FaultyHardwareConfig cfg = test_config(0.05, 0.5);
    cfg.hardware.clip_threshold = 2.0f;
    FaultyHardware hw(Scheme::kFARe, cfg);
    hw.bind_params(pointers(params));
    for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_LE(hw.effective_weights(i, params[i]).max_abs(), 2.0f);
}

TEST(FaultyHardwareTest, HealthyWeightsSurviveCorruption) {
    Rng rng(3);
    auto params = make_params(rng);
    FaultyHardware hw(Scheme::kFaultUnaware, test_config(0.0, 0.1));
    hw.bind_params(pointers(params));
    // Zero fault density: corruption is pure quantisation.
    const Matrix out = hw.effective_weights(0, params[0]);
    EXPECT_LE(max_abs_diff(out, params[0]), kFixedStep / 2 + 1e-6f);
}

TEST(FaultyHardwareTest, PruningZeroesBottomWeightsAndMasksFaults) {
    Rng rng(9);
    auto params = make_params(rng);
    FaultyHardwareConfig cfg = test_config(0.2, 1.0);  // heavy SA1 damage
    cfg.hardware.prune_fraction = 0.5;
    FaultyHardware hw(Scheme::kFaultUnaware, cfg);
    hw.bind_params(pointers(params));
    const Matrix& w = params[0];
    const Matrix out = hw.effective_weights(0, w);

    // Recompute the significance mask the hardware applies: bottom half by
    // |w|, ties broken by flat index (stable order).
    const auto stable_order = [](const Matrix& m) {
        std::vector<std::size_t> order(m.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return std::fabs(m.flat()[a]) < std::fabs(m.flat()[b]);
                         });
        return order;
    };
    const std::size_t total = w.rows() * w.cols();
    const std::vector<std::size_t> order = stable_order(w);
    const std::size_t k = static_cast<std::size_t>(0.5 * total);
    // Every pruned cell reads exactly zero — SA1 faults underneath are
    // masked, never exploding a weight the model does not use.
    for (std::size_t i = 0; i < k; ++i)
        EXPECT_EQ(out.flat()[order[i]], 0.0f) << "pruned idx " << order[i];

    // Same chip without pruning: the bottom half is NOT all-zero (quantised
    // small weights plus SA1 explosions keep plenty of them nonzero).
    cfg.hardware.prune_fraction = 0.0;
    FaultyHardware dense(Scheme::kFaultUnaware, cfg);
    dense.bind_params(pointers(params));
    const Matrix dense_out = dense.effective_weights(0, w);
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < k; ++i)
        if (dense_out.flat()[order[i]] != 0.0f) ++nonzero;
    EXPECT_GT(nonzero, 0u);

    // Ties everywhere: |w| in {0.25, 0.5, 0.75} (exact in Q8.8, never 0) on
    // a fault-free chip. Exactly the reference's bottom k read zero — ties
    // go to the lower flat index — and every other weight reads non-zero.
    std::vector<Matrix> tied_params;
    tied_params.emplace_back(32, 32);
    Matrix& tied = tied_params[0];
    for (auto& v : tied.flat())
        v = 0.25f * static_cast<float>(1 + rng.next_below(3)) *
            (rng.next_bool(0.5) ? 1.0f : -1.0f);
    const std::vector<std::size_t> tied_order = stable_order(tied);
    for (double fraction : {0.1, 0.5, 0.9}) {
        SCOPED_TRACE(::testing::Message() << "fraction " << fraction);
        FaultyHardwareConfig clean = test_config(0.0, 0.1);
        clean.hardware.prune_fraction = fraction;
        FaultyHardware pruned_hw(Scheme::kFaultUnaware, clean);
        pruned_hw.bind_params(pointers(tied_params));
        const Matrix read = pruned_hw.effective_weights(0, tied);
        std::vector<bool> bottom(tied.size(), false);
        const auto tied_k = static_cast<std::size_t>(
            fraction * static_cast<double>(tied.size()));
        for (std::size_t i = 0; i < tied_k; ++i) bottom[tied_order[i]] = true;
        for (std::size_t i = 0; i < tied.size(); ++i) {
            if (bottom[i])
                EXPECT_EQ(read.flat()[i], 0.0f) << "pruned idx " << i;
            else
                EXPECT_NE(read.flat()[i], 0.0f) << "kept idx " << i;
        }
    }
}

TEST(FaultyHardwareTest, NrPermutationReducesWeightDamage) {
    Rng rng(4);
    auto params = make_params(rng);
    FaultyHardwareConfig cfg = test_config(0.05, 0.5);
    FaultyHardware nr(Scheme::kNeuronReorder, cfg);
    FaultyHardware unaware(Scheme::kFaultUnaware, cfg);
    nr.bind_params(pointers(params));
    unaware.bind_params(pointers(params));
    double nr_err = 0.0, un_err = 0.0;
    for (std::size_t i = 0; i < params.size(); ++i) {
        nr_err += max_abs_diff(nr.effective_weights(i, params[i]), params[i]);
        un_err += max_abs_diff(unaware.effective_weights(i, params[i]), params[i]);
    }
    // Same fault map (same seed); NR's row relocation must not be worse.
    EXPECT_LE(nr_err, un_err + 1e-3);
}

TEST(FaultyHardwareTest, AdjacencyFaultsAppearForUnaware) {
    Rng rng(5);
    auto params = make_params(rng);
    FaultyHardware hw(Scheme::kFaultUnaware, test_config(0.05, 0.5));
    hw.bind_params(pointers(params));
    const BitMatrix ideal = random_batch(200, rng);
    hw.preprocess({ideal});
    const BitMatrix eff = hw.effective_adjacency(0, ideal);
    EXPECT_NE(eff.bits, ideal.bits);
}

TEST(FaultyHardwareTest, FareAdjacencyLessCorruptedThanUnaware) {
    Rng rng(6);
    auto params = make_params(rng);
    const BitMatrix ideal = random_batch(200, rng);

    auto corruption = [&](Scheme s) {
        auto local = make_params(rng);
        FaultyHardware hw(s, test_config(0.05, 0.5));
        hw.bind_params(pointers(local));
        hw.preprocess({ideal});
        const BitMatrix eff = hw.effective_adjacency(0, ideal);
        std::size_t flips = 0;
        for (std::size_t i = 0; i < eff.bits.size(); ++i)
            if (eff.bits[i] != ideal.bits[i]) ++flips;
        return flips;
    };
    EXPECT_LT(corruption(Scheme::kFARe), corruption(Scheme::kFaultUnaware) / 2);
}

TEST(FaultyHardwareTest, DisablingPhaseKnobsWorks) {
    Rng rng(7);
    auto params = make_params(rng);
    FaultyHardwareConfig cfg = test_config(0.05, 0.5);
    cfg.faults.faults_on_weights = false;
    cfg.faults.faults_on_adjacency = false;
    FaultyHardware hw(Scheme::kFaultUnaware, cfg);
    hw.bind_params(pointers(params));
    const BitMatrix ideal = random_batch(100, rng);
    hw.preprocess({ideal});
    EXPECT_LE(max_abs_diff(hw.effective_weights(0, params[0]), params[0]),
              kFixedStep / 2 + 1e-6f);
    EXPECT_EQ(hw.effective_adjacency(0, ideal).bits, ideal.bits);
}

TEST(FaultyHardwareTest, PostDeploymentFaultsGrow) {
    Rng rng(8);
    auto params = make_params(rng);
    FaultyHardwareConfig cfg = test_config(0.01, 0.1);
    cfg.faults.post_total_density = 0.02;
    cfg.faults.post_epochs = 4;
    FaultyHardware hw(Scheme::kFARe, cfg);
    hw.bind_params(pointers(params));
    const BitMatrix ideal = random_batch(150, rng);
    hw.preprocess({ideal});
    const double before = mean_fault_density(hw.accelerator().true_fault_maps());
    for (std::size_t e = 0; e < 4; ++e) hw.on_epoch_end(e);
    const double after = mean_fault_density(hw.accelerator().true_fault_maps());
    EXPECT_NEAR(after - before, 0.02, 0.008);
    EXPECT_GT(hw.bist_scans(), 0u);
}

TEST(FaultyHardwareTest, MappingsCreatedPerBatch) {
    Rng rng(9);
    auto params = make_params(rng);
    FaultyHardware hw(Scheme::kFARe, test_config(0.03, 0.1));
    hw.bind_params(pointers(params));
    std::vector<BitMatrix> batches{random_batch(150, rng), random_batch(170, rng),
                                   random_batch(130, rng)};
    hw.preprocess(batches);
    EXPECT_EQ(hw.batch_mappings().size(), 3u);
}

}  // namespace
}  // namespace fare
