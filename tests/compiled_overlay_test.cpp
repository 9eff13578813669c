// Equivalence contract of the compiled fault-overlay pipeline: the masked
// branchless path must be bit-identical to the scalar reference (the
// pre-overlay implementation) and to the bit-sliced crossbar readback (both
// in tests/oracle/), swept over fault density x SA0:SA1 ratio x row
// permutation x clipping.
#include "reram/compiled_overlay.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fare/baselines.hpp"
#include "oracle/corruption_reference.hpp"
#include "oracle/mvm_engine.hpp"
#include "reram/corruption.hpp"

namespace fare {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, float range, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.flat()) v = rng.uniform(-range, range);
    return m;
}

struct SweepCase {
    double density;
    double sa1_fraction;
    std::optional<float> clip;
};

std::vector<SweepCase> sweep_cases() {
    std::vector<SweepCase> cases;
    for (const double density : {0.0, 0.02, 0.10, 0.20})
        for (const double sa1 : {0.0, 0.3, 1.0})
            for (const std::optional<float> clip :
                 {std::optional<float>{}, std::optional<float>{2.0f},
                  std::optional<float>{0.25f}})
                cases.push_back({density, sa1, clip});
    return cases;
}

/// Permutations exercised per case: identity (implicit and explicit),
/// reversal into the spare physical rows, and a seeded shuffle.
std::vector<std::vector<std::uint16_t>> sweep_perms(std::uint16_t logical,
                                                    std::uint16_t physical,
                                                    std::uint64_t seed) {
    std::vector<std::vector<std::uint16_t>> perms;
    perms.push_back(identity_perm(logical));
    std::vector<std::uint16_t> reversed(logical);
    for (std::uint16_t r = 0; r < logical; ++r)
        reversed[r] = static_cast<std::uint16_t>(physical - 1 - r);
    perms.push_back(std::move(reversed));
    auto shuffled = identity_perm(physical);
    Rng rng(seed);
    rng.shuffle(shuffled);
    shuffled.resize(logical);  // injective into the physical rows
    perms.push_back(std::move(shuffled));
    return perms;
}

TEST(CompiledOverlayTest, SweepMatchesScalarReferenceBitForBit) {
    const std::size_t rows = 24, cols = 8;
    const std::size_t phys_rows = 32;
    Rng rng(11);
    const Matrix w = random_matrix(rows, cols, 2.0f, rng);

    std::uint64_t seed = 100;
    for (const SweepCase& c : sweep_cases()) {
        FaultInjectionConfig cfg;
        cfg.density = c.density;
        cfg.sa1_fraction = c.sa1_fraction;
        cfg.seed = ++seed;
        const auto maps = inject_faults(2, 32, 32, cfg);
        const WeightFaultGrid grid(phys_rows, cols, maps, 32, 32);

        // Identity fast path (no perm materialised).
        const CompiledFaultOverlay identity(grid, rows, cols);
        EXPECT_EQ(identity.apply(w, c.clip),
                  corrupt_weights_reference(w, grid, c.clip));

        for (const auto& perm : sweep_perms(rows, phys_rows, seed)) {
            const CompiledFaultOverlay overlay(grid, rows, cols, perm);
            const Matrix via_overlay = overlay.apply(w, c.clip);
            EXPECT_EQ(via_overlay,
                      corrupt_weights_permuted_reference(w, grid, perm, c.clip));
            EXPECT_LE(overlay.num_faulty_weights(), grid.num_faults());
        }
    }
}

TEST(CompiledOverlayTest, SweepMatchesEngineReadback) {
    // The central contract (docs/performance.md, *Equivalence contract*),
    // now three ways: programming the (row-permuted) weights onto bit-sliced
    // crossbars and reading back through the fault overlay equals the
    // compiled-overlay fast path.
    const std::size_t rows = 20, cols = 8;
    const std::size_t phys_rows = 32;
    Rng rng(17);
    const Matrix w = random_matrix(rows, cols, 2.0f, rng);

    std::uint64_t seed = 500;
    for (const SweepCase& c : sweep_cases()) {
        FaultInjectionConfig cfg;
        cfg.density = c.density;
        cfg.sa1_fraction = c.sa1_fraction;
        cfg.seed = ++seed;
        const auto maps = inject_faults(2, 32, 32, cfg);
        const WeightFaultGrid grid(phys_rows, cols, maps, 32, 32);

        for (const auto& perm : sweep_perms(rows, phys_rows, seed)) {
            // Engine model of the permuted placement: logical row r is
            // physically programmed at row perm[r].
            Matrix physical(phys_rows, cols);
            for (std::size_t r = 0; r < rows; ++r) {
                auto dst = physical.row(perm[r]);
                auto src = w.row(r);
                std::copy(src.begin(), src.end(), dst.begin());
            }
            ProgrammedWeights pw(phys_rows, cols, 32, 32);
            pw.set_fault_maps(maps);
            pw.program(physical);
            const Matrix readback = dequantize(pw.read_effective());
            Matrix expected(rows, cols);
            for (std::size_t r = 0; r < rows; ++r)
                for (std::size_t col = 0; col < cols; ++col) {
                    float v = readback(perm[r], col);
                    if (c.clip.has_value()) v = std::clamp(v, -*c.clip, *c.clip);
                    expected(r, col) = v;
                }

            const CompiledFaultOverlay overlay(grid, rows, cols, perm);
            EXPECT_EQ(overlay.apply(w, c.clip), expected);
        }
    }
}

TEST(CompiledOverlayTest, ExplodesAndClipsLikeTheReference) {
    FaultMap map(32, 32);
    map.add(0, 0, FaultType::kSA1);  // MSB slice of weight (0,0)
    const WeightFaultGrid grid(32, 4, {map}, 32, 32);
    Matrix w(32, 4, 0.5f);
    const CompiledFaultOverlay overlay(grid, 32, 4);
    const Matrix unclipped = overlay.apply(w);
    EXPECT_GT(unclipped.max_abs(), 60.0f);
    const Matrix clipped = overlay.apply(w, 2.0f);
    EXPECT_LE(clipped.max_abs(), 2.0f);
    EXPECT_FLOAT_EQ(clipped(5, 2), 0.5f);
    EXPECT_EQ(overlay.num_faulty_weights(), 1u);
}

TEST(CompiledOverlayTest, ValidatesGeometry) {
    const WeightFaultGrid grid(32, 4, {FaultMap(32, 32)}, 32, 32);
    // Grid narrower than the weights.
    EXPECT_THROW(CompiledFaultOverlay(grid, 32, 8), InvalidArgument);
    // Permutation wrong length / out of range.
    const std::vector<std::uint16_t> short_perm{0, 1};
    EXPECT_THROW(CompiledFaultOverlay(grid, 4, 4, short_perm), InvalidArgument);
    const std::vector<std::uint16_t> oob_perm{0, 1, 2, 40};
    EXPECT_THROW(CompiledFaultOverlay(grid, 4, 4, oob_perm), InvalidArgument);
    // Apply on a mismatched matrix.
    const CompiledFaultOverlay overlay(grid, 32, 4);
    Matrix wrong(8, 4);
    EXPECT_THROW(overlay.apply(wrong), InvalidArgument);
    EXPECT_THROW(CompiledFaultOverlay().apply(wrong), InvalidArgument);
}

TEST(HardwareVersionTest, StampsTrackFaultEvents) {
    FaultyHardwareConfig config;
    config.hardware.num_tiles = 4;
    config.faults.density = 0.05;
    config.seed = 3;
    config.faults.post_total_density = 0.02;
    config.faults.post_epochs = 4;
    FaultyHardware hw(Scheme::kFaultUnaware, config);

    Matrix w(64, 16, 0.25f);
    std::vector<Matrix*> params{&w};
    hw.bind_params(params);

    const std::uint64_t v0 = hw.weights_state_version();
    EXPECT_EQ(hw.weights_state_version(), v0);  // stable between events
    const Matrix e0 = hw.effective_weights(0, w);
    EXPECT_EQ(hw.weights_state_version(), v0);  // reads do not invalidate
    EXPECT_EQ(hw.effective_weights(0, w), e0);  // deterministic read-out

    const std::uint64_t a0 = hw.adjacency_state_version();
    hw.on_epoch_end(0);  // wear arrives -> BIST rescan
    EXPECT_NE(hw.weights_state_version(), v0);
    EXPECT_NE(hw.adjacency_state_version(), a0);

    // Re-binding rescans the (newly allocated) regions: caches keyed on the
    // stamp must invalidate.
    const std::uint64_t v1 = hw.weights_state_version();
    hw.bind_params(params);
    EXPECT_NE(hw.weights_state_version(), v1);
}

TEST(HardwareVersionTest, WearStampsInvalidateExactlyOnArrival) {
    // Live wear, no uniform stream: the overlay / effective-state stamps
    // must move exactly at the checkpoints where cells actually wore out —
    // never on quiet checkpoints (the tentpole contract of the wear PR).
    FaultyHardwareConfig config;
    config.hardware.num_tiles = 4;
    config.faults.density = 0.0;
    config.seed = 21;
    config.faults.wear.endurance_mean_writes = 40.0;  // wears out within ~40 steps
    config.faults.wear.weibull_shape = 2.0;
    config.faults.arrival_period_batches = 1;  // check after every step
    FaultyHardware hw(Scheme::kFaultUnaware, config);

    Matrix w(64, 16, 0.25f);
    std::vector<Matrix*> params{&w};
    hw.bind_params(params);

    std::size_t arrival_steps = 0, stamp_moves = 0;
    std::uint64_t version = hw.weights_state_version();
    std::size_t worn = hw.wear_faults();
    for (std::size_t step = 0; step < 80; ++step) {
        hw.on_step_end(0, step, 80);
        const bool arrived = hw.wear_faults() != worn;
        const bool moved = hw.weights_state_version() != version;
        EXPECT_EQ(moved, arrived) << "step " << step;
        arrival_steps += arrived;
        stamp_moves += moved;
        version = hw.weights_state_version();
        worn = hw.wear_faults();
    }
    EXPECT_GT(arrival_steps, 0u);   // the endurance horizon was crossed...
    EXPECT_LT(stamp_moves, 80u);    // ...but quiet steps outnumber arrivals
    EXPECT_GT(hw.wear_faults(), 0u);

    // The worn fault state is observable: corruption now differs from a
    // pristine chip's, and matches a fresh BIST image of the region.
    FaultyHardwareConfig pristine = config;
    pristine.faults.wear.endurance_mean_writes = 0.0;
    FaultyHardware clean(Scheme::kFaultUnaware, pristine);
    clean.bind_params(params);
    EXPECT_NE(hw.effective_weights(0, w), clean.effective_weights(0, w));
    // A 64x16 parameter occupies exactly crossbar 0 of the accelerator.
    std::vector<FaultMap> maps;
    maps.push_back(
        bist_scan(const_cast<Crossbar&>(hw.accelerator().crossbar(0))).detected);
    const WeightFaultGrid grid(128, 16, maps, 128, 128);
    EXPECT_EQ(hw.effective_weights(0, w),
              corrupt_weights_reference(w, grid, std::nullopt));
}

TEST(HardwareVersionTest, QuietWearNeverInvalidates) {
    // Endurance far beyond the run's write horizon: no arrivals, so stamps
    // must stay put across every step and epoch boundary.
    FaultyHardwareConfig config;
    config.hardware.num_tiles = 4;
    config.faults.density = 0.05;
    config.seed = 23;
    config.faults.wear.endurance_mean_writes = 1e15;
    config.faults.arrival_period_batches = 2;
    FaultyHardware hw(Scheme::kFaultUnaware, config);
    Matrix w(64, 16, 0.25f);
    std::vector<Matrix*> params{&w};
    hw.bind_params(params);

    const std::uint64_t v0 = hw.weights_state_version();
    const std::uint64_t a0 = hw.adjacency_state_version();
    for (std::size_t step = 0; step < 10; ++step) hw.on_step_end(0, step, 10);
    hw.on_epoch_end(0);
    EXPECT_EQ(hw.weights_state_version(), v0);
    EXPECT_EQ(hw.adjacency_state_version(), a0);
    EXPECT_EQ(hw.wear_faults(), 0u);
}

TEST(HardwareVersionTest, BaseDefaultIsNeverCacheable) {
    // A HardwareModel subclass that doesn't think about versioning must keep
    // the recompute-every-batch behaviour (fail safe, never stale).
    HardwareModel base;
    EXPECT_NE(base.weights_state_version(), base.weights_state_version());
    EXPECT_NE(base.adjacency_state_version(), base.adjacency_state_version());
}

TEST(HardwareVersionTest, ReadNoiseIsNeverCacheable) {
    FaultyHardwareConfig config;
    config.hardware.num_tiles = 4;
    config.faults.density = 0.0;
    config.faults.read_noise_sigma = 0.01;
    FaultyHardware hw(Scheme::kFaultUnaware, config);
    const std::uint64_t v1 = hw.weights_state_version();
    const std::uint64_t v2 = hw.weights_state_version();
    EXPECT_NE(v1, v2);
}

}  // namespace
}  // namespace fare
