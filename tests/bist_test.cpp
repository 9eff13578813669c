#include "reram/bist.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "reram/fault_model.hpp"

namespace fare {
namespace {

TEST(BistTest, DetectsExactFaultMap) {
    Crossbar xb(32, 32);
    FaultMap truth(32, 32);
    truth.add(0, 0, FaultType::kSA0);
    truth.add(5, 7, FaultType::kSA1);
    truth.add(31, 31, FaultType::kSA0);
    xb.set_fault_map(truth);

    const BistResult result = bist_scan(xb);
    EXPECT_EQ(result.detected.num_faults(), 3u);
    EXPECT_EQ(result.detected.at(0, 0), FaultType::kSA0);
    EXPECT_EQ(result.detected.at(5, 7), FaultType::kSA1);
    EXPECT_EQ(result.detected.at(31, 31), FaultType::kSA0);
    EXPECT_FALSE(result.detected.at(1, 1).has_value());
}

TEST(BistTest, RestoresOriginalContents) {
    Crossbar xb(16, 16);
    FaultMap truth(16, 16);
    truth.add(3, 3, FaultType::kSA1);
    xb.set_fault_map(truth);
    for (std::uint16_t r = 0; r < 16; ++r)
        for (std::uint16_t c = 0; c < 16; ++c)
            xb.program(r, c, static_cast<std::uint8_t>((r + c) % 4));

    bist_scan(xb);
    for (std::uint16_t r = 0; r < 16; ++r)
        for (std::uint16_t c = 0; c < 16; ++c)
            EXPECT_EQ(xb.stored(r, c), static_cast<std::uint8_t>((r + c) % 4));
}

TEST(BistTest, CleanCrossbarScansClean) {
    Crossbar xb(16, 16);
    const BistResult result = bist_scan(xb);
    EXPECT_EQ(result.detected.num_faults(), 0u);
}

TEST(BistTest, CellOpsAccounted) {
    Crossbar xb(8, 8);
    const BistResult result = bist_scan(xb);
    // 2 passes x (write + read) + restore write = 5 ops per cell.
    EXPECT_EQ(result.cell_ops, 8u * 8u * 5u);
}

TEST(BistTest, RandomFaultMapsRecoveredExactly) {
    // Property: for random injected maps, BIST recovers the exact map.
    FaultInjectionConfig cfg;
    cfg.density = 0.08;
    cfg.seed = 17;
    const auto maps = inject_faults(4, 64, 64, cfg);
    for (const auto& truth : maps) {
        Crossbar xb(64, 64);
        xb.set_fault_map(truth);
        const FaultMap detected = bist_scan(xb).detected;
        ASSERT_EQ(detected.num_faults(), truth.num_faults());
        for (const CellFault& f : truth.all_faults())
            EXPECT_EQ(detected.at(f.row, f.col), f.type);
    }
}

/// The three-pass march bist_scan computes in closed form, kept as the
/// oracle: write 0 / read, write max / read, restore, cell by cell.
BistResult march_reference(Crossbar& xbar) {
    const std::uint16_t rows = xbar.rows();
    const std::uint16_t cols = xbar.cols();
    BistResult result;
    result.detected = FaultMap(rows, cols);
    std::vector<std::uint8_t> saved(static_cast<std::size_t>(rows) * cols);
    for (std::uint16_t r = 0; r < rows; ++r)
        for (std::uint16_t c = 0; c < cols; ++c)
            saved[static_cast<std::size_t>(r) * cols + c] = xbar.stored(r, c);
    const std::uint8_t lo = 0;
    const std::uint8_t hi = Crossbar::max_level();
    for (std::uint16_t r = 0; r < rows; ++r)
        for (std::uint16_t c = 0; c < cols; ++c) {
            xbar.program(r, c, lo);
            if (xbar.read(r, c) != lo) result.detected.add(r, c, FaultType::kSA1);
            result.cell_ops += 2;
        }
    for (std::uint16_t r = 0; r < rows; ++r)
        for (std::uint16_t c = 0; c < cols; ++c) {
            xbar.program(r, c, hi);
            if (xbar.read(r, c) != hi) result.detected.add(r, c, FaultType::kSA0);
            result.cell_ops += 2;
        }
    for (std::uint16_t r = 0; r < rows; ++r)
        for (std::uint16_t c = 0; c < cols; ++c) {
            xbar.program(r, c, saved[static_cast<std::size_t>(r) * cols + c]);
            ++result.cell_ops;
        }
    return result;
}

TEST(BistTest, ClosedFormMatchesMarch) {
    // Random stored levels, SA0/SA1 hard and soft faults and prior per-cell
    // writes; two scans in a row, so the second sees the first's wear.
    Rng rng(23);
    const std::pair<std::uint16_t, std::uint16_t> shapes[] = {
        {8, 8}, {16, 24}, {33, 17}, {128, 128}};
    for (const auto& [rows, cols] : shapes) {
        for (double density : {0.0, 0.02, 0.3}) {
            SCOPED_TRACE(::testing::Message() << rows << "x" << cols
                                              << " density " << density);
            Crossbar march(rows, cols);
            FaultMap faults(rows, cols);
            for (std::uint16_t r = 0; r < rows; ++r)
                for (std::uint16_t c = 0; c < cols; ++c) {
                    for (std::uint64_t n = rng.next_below(3); n > 0; --n)
                        march.program(
                            r, c, static_cast<std::uint8_t>(rng.next_below(4)));
                    if (!rng.next_bool(density)) continue;
                    const FaultType type =
                        rng.next_bool(0.5) ? FaultType::kSA1 : FaultType::kSA0;
                    faults.add(r, c, type, /*soft=*/rng.next_bool(0.5));
                }
            march.set_fault_map(faults);
            march.add_uniform_writes(rng.next_below(100));
            Crossbar closed = march;

            for (int scan = 0; scan < 2; ++scan) {
                const BistResult want = march_reference(march);
                const BistResult got = bist_scan(closed);
                EXPECT_TRUE(got.detected == want.detected) << "scan " << scan;
                EXPECT_EQ(got.detected.num_soft(), 0u);
                EXPECT_EQ(got.cell_ops, want.cell_ops);
                EXPECT_EQ(closed.total_writes(), march.total_writes());
                EXPECT_EQ(closed.max_cell_writes(), march.max_cell_writes());
                for (std::uint16_t r = 0; r < rows; ++r)
                    for (std::uint16_t c = 0; c < cols; ++c) {
                        ASSERT_EQ(closed.writes(r, c), march.writes(r, c))
                            << "cell " << r << "," << c;
                        ASSERT_EQ(closed.stored(r, c), march.stored(r, c))
                            << "cell " << r << "," << c;
                    }
            }
            // The march leaves the truth, soft flags included, untouched.
            EXPECT_TRUE(closed.fault_map() == faults);
        }
    }
}

}  // namespace
}  // namespace fare
