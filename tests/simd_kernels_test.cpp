// SIMD kernel layer tests (common/simd.hpp):
//
//   * every kernel in the active vector table is fuzzed against the scalar
//     oracle table and must match BYTE for byte — including ragged tails,
//     saturating inputs, round-to-nearest-even ties and empty inputs;
//   * dispatch plumbing: degrade-to-scalar for ISAs the host cannot run,
//     the RAII test scope, and a session leaving that scope's pin alone;
//   * end to end: a full online-tolerance cell run with scalar pinned is
//     byte-identical to the same run under the default selection.
//
// On a host with no vector ISA the fuzz cases compare scalar against scalar
// (vacuously true); CI's AVX2 runners exercise the real comparison, and the
// -DFARE_SIMD=OFF leg pins everything to scalar.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "sim/cell.hpp"
#include "sim/cell_cache.hpp"
#include "sim/executor.hpp"
#include "sim/plan.hpp"
#include "sim/serialization.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

using simd::SimdIsa;

/// Deterministic fuzz inputs: mostly uniform over ±range (beyond the ±128
/// saturation point when range is large), salted with the values that make
/// rounding and saturation interesting.
std::vector<float> fuzz_floats(std::mt19937& gen, std::size_t n, float range) {
    std::uniform_real_distribution<float> dist(-range, range);
    std::vector<float> v(n);
    for (auto& x : v) x = dist(gen);
    // Exact grid points, half-step ties (nearest-even territory), the
    // saturation boundary, and zero.
    const float special[] = {0.0f,       0.5f / 256.0f, 1.5f / 256.0f,
                             -0.5f / 256.0f, 127.99609375f, -127.99609375f,
                             128.0f,     -128.0f,       127.998046875f};
    std::uniform_int_distribution<std::size_t> pick(0, n ? n - 1 : 0);
    for (float s : special)
        if (n != 0) v[pick(gen)] = s;
    return v;
}

/// memcmp over `bytes`, with zero bytes equal without touching the
/// pointers: an empty vector's data() may be null, which memcmp forbids.
bool same_bytes(const void* a, const void* b, std::size_t bytes) {
    return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

const std::size_t kRaggedSizes[] = {0,  1,  2,  3,  7,  8,   9,   15,
                                    16, 17, 31, 32, 33, 64, 100, 257};

TEST(SimdKernelsTest, QuantizePassesMatchScalarOracle) {
    const simd::SimdKernels& active = simd::kernels();
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    std::mt19937 gen(20240807);
    for (const std::size_t n : kRaggedSizes) {
        const std::vector<float> src = fuzz_floats(gen, n, 200.0f);

        std::vector<float> da(n, -1.0f), db(n, -2.0f);
        active.quantize_dequantize(src.data(), da.data(), n);
        oracle.quantize_dequantize(src.data(), db.data(), n);
        ASSERT_TRUE(same_bytes(da.data(), db.data(), n * sizeof(float)))
            << "quantize_dequantize n=" << n;

        for (const float clip : {0.05f, 1.0f, 100.0f}) {
            active.quantize_dequantize_clip(src.data(), da.data(), n, clip);
            oracle.quantize_dequantize_clip(src.data(), db.data(), n, clip);
            ASSERT_TRUE(same_bytes(da.data(), db.data(), n * sizeof(float)))
                << "quantize_dequantize_clip n=" << n << " clip=" << clip;
        }
    }
}

TEST(SimdKernelsTest, OverlayFixupMatchesScalarOracle) {
    const simd::SimdKernels& active = simd::kernels();
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    std::mt19937 gen(20240808);
    std::uniform_int_distribution<std::uint32_t> mask_dist(0, 0xFFFF);
    for (const std::size_t len : {1u, 8u, 9u, 64u, 333u, 4096u}) {
        const std::vector<float> src = fuzz_floats(gen, len, 200.0f);
        // Every possible entry count, including 0, none, and all of them.
        for (const std::size_t m :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{13}, len / 2, len}) {
            if (m > len) continue;
            // Unique sorted indices, random AND/OR masks.
            std::vector<std::uint32_t> all(len);
            std::iota(all.begin(), all.end(), 0u);
            std::shuffle(all.begin(), all.end(), gen);
            std::vector<std::uint32_t> idx(all.begin(), all.begin() + m);
            std::sort(idx.begin(), idx.end());
            std::vector<std::uint16_t> andm(m), orm(m);
            for (std::size_t e = 0; e < m; ++e) {
                andm[e] = static_cast<std::uint16_t>(mask_dist(gen));
                // OR only sets bits the AND keeps cleared or not — any
                // combination is legal for the kernel; use raw random.
                orm[e] = static_cast<std::uint16_t>(mask_dist(gen));
            }
            std::vector<float> da(len, 0.0f), db(len, 0.0f);
            active.overlay_fixup(src.data(), da.data(), idx.data(), andm.data(),
                                 orm.data(), m);
            oracle.overlay_fixup(src.data(), db.data(), idx.data(), andm.data(),
                                 orm.data(), m);
            ASSERT_EQ(0, std::memcmp(da.data(), db.data(), len * sizeof(float)))
                << "overlay_fixup len=" << len << " m=" << m;

            active.overlay_fixup_clip(src.data(), da.data(), idx.data(),
                                      andm.data(), orm.data(), m, 0.05f);
            oracle.overlay_fixup_clip(src.data(), db.data(), idx.data(),
                                      andm.data(), orm.data(), m, 0.05f);
            ASSERT_EQ(0, std::memcmp(da.data(), db.data(), len * sizeof(float)))
                << "overlay_fixup_clip len=" << len << " m=" << m;
        }
    }
}

TEST(SimdKernelsTest, MatmulKernelsMatchScalarOracle) {
    const simd::SimdKernels& active = simd::kernels();
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    std::mt19937 gen(20240809);
    const std::size_t shapes[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33};
    for (const std::size_t m : shapes) {
        for (const std::size_t k : shapes) {
            for (const std::size_t n : shapes) {
                const std::vector<float> a = fuzz_floats(gen, m * k, 2.0f);
                const std::vector<float> b = fuzz_floats(gen, k * n, 2.0f);
                std::vector<float> ca(m * n, -1.0f), cb(m * n, -2.0f);
                // Full row range plus a partial one (chunk-boundary shape).
                for (const auto& [i0, i1] :
                     {std::pair<std::size_t, std::size_t>{0, m},
                      std::pair<std::size_t, std::size_t>{m / 3, m}}) {
                    active.matmul_rows(a.data(), b.data(), ca.data(), i0, i1, k, n);
                    oracle.matmul_rows(a.data(), b.data(), cb.data(), i0, i1, k, n);
                    ASSERT_EQ(0, std::memcmp(ca.data(), cb.data(),
                                             m * n * sizeof(float)))
                        << "matmul_rows " << m << "x" << k << "x" << n;
                }

                // a is (k x m) here: output row i reads column i of a.
                const std::vector<float> at = fuzz_floats(gen, k * m, 2.0f);
                active.matmul_at_b_rows(at.data(), b.data(), ca.data(), 0, m, k,
                                        m, n);
                oracle.matmul_at_b_rows(at.data(), b.data(), cb.data(), 0, m, k,
                                        m, n);
                ASSERT_EQ(0,
                          std::memcmp(ca.data(), cb.data(), m * n * sizeof(float)))
                    << "matmul_at_b_rows " << m << "x" << k << "x" << n;

                // b is (n x k) here: c = a * b^T.
                const std::vector<float> bt = fuzz_floats(gen, n * k, 2.0f);
                active.matmul_a_bt_rows(a.data(), bt.data(), ca.data(), 0, m, k, n);
                oracle.matmul_a_bt_rows(a.data(), bt.data(), cb.data(), 0, m, k, n);
                ASSERT_EQ(0,
                          std::memcmp(ca.data(), cb.data(), m * n * sizeof(float)))
                    << "matmul_a_bt_rows " << m << "x" << k << "x" << n;
            }
        }
    }
    // One K beyond the vector kernels' k-tile (256) so the multi-chunk
    // accumulation-resume path is covered.
    const std::size_t m = 5, k = 600, n = 19;
    const std::vector<float> a = fuzz_floats(gen, m * k, 2.0f);
    const std::vector<float> bt = fuzz_floats(gen, n * k, 2.0f);
    std::vector<float> ca(m * n), cb(m * n);
    active.matmul_a_bt_rows(a.data(), bt.data(), ca.data(), 0, m, k, n);
    oracle.matmul_a_bt_rows(a.data(), bt.data(), cb.data(), 0, m, k, n);
    ASSERT_EQ(0, std::memcmp(ca.data(), cb.data(), m * n * sizeof(float)));
}

TEST(SimdKernelsTest, AggregationKernelsMatchScalarOracle) {
    const simd::SimdKernels& active = simd::kernels();
    const simd::SimdKernels& oracle = simd::kernels(SimdIsa::kScalar);
    std::mt19937 gen(20240810);
    for (const std::size_t nodes : {1u, 2u, 17u, 64u}) {
        for (const std::size_t feat : {1u, 3u, 8u, 16u, 33u}) {
            // Random CSR with 0..5 edges per row.
            std::uniform_int_distribution<std::size_t> deg_dist(0, 5);
            std::uniform_int_distribution<std::uint32_t> col_dist(
                0, static_cast<std::uint32_t>(nodes - 1));
            std::vector<std::size_t> offsets(nodes + 1, 0);
            std::vector<std::uint32_t> cols;
            for (std::size_t r = 0; r < nodes; ++r) {
                const std::size_t deg = deg_dist(gen);
                for (std::size_t d = 0; d < deg; ++d) cols.push_back(col_dist(gen));
                offsets[r + 1] = cols.size();
            }
            const std::vector<float> vals = fuzz_floats(gen, cols.size(), 1.0f);
            const std::vector<float> x = fuzz_floats(gen, nodes * feat, 2.0f);

            std::vector<float> ya(nodes * feat, 0.0f), yb(nodes * feat, 0.0f);
            active.aggregate_rows(offsets.data(), cols.data(), vals.data(),
                                  x.data(), ya.data(), 0, nodes, feat);
            oracle.aggregate_rows(offsets.data(), cols.data(), vals.data(),
                                  x.data(), yb.data(), 0, nodes, feat);
            ASSERT_EQ(0, std::memcmp(ya.data(), yb.data(),
                                     nodes * feat * sizeof(float)))
                << "aggregate_rows nodes=" << nodes << " feat=" << feat;

            // Transpose index, exactly as BatchGraphView::finalize builds it.
            std::vector<std::size_t> t_offsets(nodes + 1, 0);
            for (const std::uint32_t c : cols) ++t_offsets[c + 1];
            for (std::size_t c = 0; c < nodes; ++c) t_offsets[c + 1] += t_offsets[c];
            std::vector<std::uint32_t> t_src(cols.size()), t_edge(cols.size());
            std::vector<std::size_t> cursor(t_offsets.begin(), t_offsets.end() - 1);
            for (std::size_t r = 0; r < nodes; ++r)
                for (std::size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
                    const std::size_t slot = cursor[cols[e]]++;
                    t_src[slot] = static_cast<std::uint32_t>(r);
                    t_edge[slot] = static_cast<std::uint32_t>(e);
                }

            std::fill(ya.begin(), ya.end(), 0.0f);
            std::fill(yb.begin(), yb.end(), 0.0f);
            active.aggregate_t_rows(t_offsets.data(), t_src.data(), t_edge.data(),
                                    vals.data(), x.data(), ya.data(), 0, nodes,
                                    feat);
            oracle.aggregate_t_rows(t_offsets.data(), t_src.data(), t_edge.data(),
                                    vals.data(), x.data(), yb.data(), 0, nodes,
                                    feat);
            ASSERT_EQ(0, std::memcmp(ya.data(), yb.data(),
                                     nodes * feat * sizeof(float)))
                << "aggregate_t_rows nodes=" << nodes << " feat=" << feat;
        }
    }
}

TEST(SimdDispatchTest, ScopeDegradesToScalar) {
    // Pinning scalar always works.
    {
        simd::SimdIsaScope pin(SimdIsa::kScalar);
        EXPECT_EQ(simd::active_isa(), SimdIsa::kScalar);
    }

    // Pinning an ISA the host cannot run degrades to scalar; pinning the
    // detected one selects it.
    for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
        simd::SimdIsaScope pin(isa);
        if (isa == simd::detected_isa())
            EXPECT_EQ(simd::active_isa(), isa);
        else
            EXPECT_EQ(simd::active_isa(), SimdIsa::kScalar);
    }

    // kernels(isa) throws for unavailable ISAs instead of degrading.
    for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
        if (isa != simd::detected_isa()) {
            EXPECT_THROW(simd::kernels(isa), InvalidArgument);
        }
    }

    EXPECT_STREQ(simd::isa_name(SimdIsa::kScalar), "scalar");
    EXPECT_STREQ(simd::isa_name(SimdIsa::kAvx2), "avx2");
    EXPECT_STREQ(simd::isa_name(SimdIsa::kNeon), "neon");
}

TEST(SimdDispatchTest, IsaScopeRestoresPreviousSelection) {
    const SimdIsa ambient = simd::active_isa();
    {
        simd::SimdIsaScope pin(SimdIsa::kScalar);
        EXPECT_EQ(simd::active_isa(), SimdIsa::kScalar);
        {
            simd::SimdIsaScope inner(simd::detected_isa());
            EXPECT_EQ(simd::active_isa(), simd::detected_isa());
        }
        EXPECT_EQ(simd::active_isa(), SimdIsa::kScalar);
    }
    EXPECT_EQ(simd::active_isa(), ambient);
}

TEST(SimdDispatchTest, SessionKeepsTheScopePin) {
    // Constructing a session resolves FARE_SIMD but must not touch a pin.
    simd::SimdIsaScope pin(SimdIsa::kScalar);
    { SimSession session; }
    EXPECT_EQ(simd::active_isa(), SimdIsa::kScalar);
}

/// Tiny online-tolerance plan — wear, soft errors, detection rounds, spare
/// repairs — so the scalar-vs-auto comparison crosses every SIMD-dispatched
/// pass (quantise, overlay fix-up + clip, all three GEMMs, aggregation).
ExperimentPlan tiny_online_plan() {
    FaultScenario faults = FaultScenario::pre_deployment(0.01, 0.5);
    faults.with_wear(40e3, 0.25).with_arrival_period(2).with_soft_errors(0.003);
    HardwareOverrides hw;
    hw.online.detect_period_batches = 2;
    hw.online.march_window = 8;
    hw.online.spare_columns = 2;
    hw.online.readback_tolerance = 0.05;
    return SweepBuilder("simd_identity")
        .workload(find_workload("PPI", GnnKind::kGCN))
        .scenario(faults)
        .hardware(hw)
        .schemes({Scheme::kOnlineFARe})
        .epochs(2)
        .build();
}

/// Same normalization as `fare-run --canonical`.
std::string canonical(const ResultSet& results) {
    std::string out;
    for (const CellResult& cell : results.cells) {
        out += cell_result_to_json(canonicalized(cell));
        out += '\n';
    }
    return out;
}

TEST(SimdEndToEndTest, OnlineCellIsByteIdenticalScalarVsAuto) {
    ResultSet scalar_run;
    {
        simd::SimdIsaScope pin(SimdIsa::kScalar);
        SimSession scalar_session(SessionOptions{},
                                  std::make_unique<PoolExecutor>(1), nullptr);
        scalar_run = scalar_session.run(tiny_online_plan());
    }

    SimSession auto_session(SessionOptions{}, std::make_unique<PoolExecutor>(1),
                            nullptr);
    const ResultSet auto_run = auto_session.run(tiny_online_plan());

    ASSERT_EQ(scalar_run.size(), tiny_online_plan().size());
    EXPECT_EQ(canonical(scalar_run), canonical(auto_run));
}

}  // namespace
}  // namespace fare
