#include "reram/accelerator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {
namespace {

AcceleratorConfig small_config() {
    AcceleratorConfig cfg;
    cfg.tile.crossbars_per_tile = 8;
    cfg.tile.crossbar_rows = 32;
    cfg.tile.crossbar_cols = 32;
    cfg.num_tiles = 2;
    return cfg;
}

TEST(TileTest, SpecDefaultsMatchTableIII) {
    const TileSpec spec;
    EXPECT_EQ(spec.crossbars_per_tile, 96);
    EXPECT_EQ(spec.crossbar_rows, 128);
    EXPECT_EQ(spec.crossbar_cols, 128);
    EXPECT_EQ(spec.bits_per_cell, 2);
    EXPECT_EQ(spec.adc_bits, 8);
    EXPECT_DOUBLE_EQ(spec.power_w, 0.34);
    EXPECT_DOUBLE_EQ(spec.area_mm2, 0.157);
    EXPECT_EQ(spec.cells_per_crossbar(), 128u * 128u);
}

TEST(AcceleratorTest, FlatCrossbarAddressing) {
    Accelerator acc(small_config());
    EXPECT_EQ(acc.num_crossbars(), 16u);
    EXPECT_EQ(acc.num_tiles(), 2u);
    acc.crossbar(9).program(1, 1, 2);  // lives in tile 1
    for (std::size_t i = 0; i < acc.num_crossbars(); ++i)
        EXPECT_EQ(acc.crossbar(i).total_writes(), i == 9 ? 1u : 0u) << i;
    EXPECT_THROW(acc.crossbar(16), InvalidArgument);
    const Accelerator& view = acc;
    EXPECT_THROW(view.crossbar(16), InvalidArgument);
}

TEST(AcceleratorTest, AllocationIsExclusive) {
    Accelerator acc(small_config());
    const CrossbarRange a = acc.allocate(6);
    const CrossbarRange b = acc.allocate(10);
    EXPECT_EQ(a.first, 0u);
    EXPECT_EQ(b.first, 6u);
    EXPECT_EQ(acc.crossbars_available(), 0u);
    EXPECT_THROW(acc.allocate(1), ResourceError);
}

TEST(AcceleratorTest, FaultInjectionReachesCrossbars) {
    Accelerator acc(small_config());
    FaultInjectionConfig cfg;
    cfg.density = 0.1;
    cfg.seed = 3;
    acc.inject_pre_deployment_faults(cfg);
    std::size_t total = 0;
    for (std::size_t i = 0; i < acc.num_crossbars(); ++i)
        total += acc.crossbar(i).fault_map().num_faults();
    EXPECT_GT(total, 0u);
}

TEST(AcceleratorTest, BistMatchesTruth) {
    Accelerator acc(small_config());
    FaultInjectionConfig cfg;
    cfg.density = 0.05;
    cfg.seed = 5;
    acc.inject_pre_deployment_faults(cfg);
    const auto truth = acc.true_fault_maps();
    const auto detected = acc.bist_scan_all();
    ASSERT_EQ(truth.size(), detected.size());
    for (std::size_t i = 0; i < truth.size(); ++i)
        EXPECT_EQ(truth[i].num_faults(), detected[i].num_faults());
}

TEST(AcceleratorTest, PostDeploymentGrowsFaults) {
    Accelerator acc(small_config());
    FaultInjectionConfig cfg;
    cfg.density = 0.02;
    cfg.seed = 7;
    acc.inject_pre_deployment_faults(cfg);
    const double before = mean_fault_density(acc.true_fault_maps());
    Rng rng(9);
    acc.inject_post_deployment_faults(0.02, 0.1, rng);
    const double after = mean_fault_density(acc.true_fault_maps());
    EXPECT_GT(after, before + 0.005);
}

TEST(AcceleratorTest, AreaAndPowerRollUp) {
    Accelerator acc(small_config());
    EXPECT_NEAR(acc.total_area_mm2(), 2 * 0.157, 1e-9);
    EXPECT_NEAR(acc.peak_power_w(), 2 * 0.34, 1e-9);
}

TEST(AcceleratorTest, InvalidConfigRejected) {
    AcceleratorConfig cfg = small_config();
    cfg.num_tiles = 0;
    EXPECT_THROW(Accelerator{cfg}, InvalidArgument);
}

}  // namespace
}  // namespace fare
