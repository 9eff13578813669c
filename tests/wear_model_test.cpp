// Contract of the endurance-driven wear model (reram/wear_model.hpp):
// per-cell write accounting is monotone, lifetime draws are a deterministic
// function of the seed, arrivals fire exactly once per cell when its write
// count crosses its lifetime, and hot-spot clustering concentrates wear.
#include "reram/wear_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "reram/accelerator.hpp"

namespace fare {
namespace {

/// Tiny chip: two 16x16 crossbars in one tile — every scan is instant.
AcceleratorConfig tiny_chip() {
    AcceleratorConfig config;
    config.tile.crossbar_rows = 16;
    config.tile.crossbar_cols = 16;
    config.tile.crossbars_per_tile = 2;
    config.num_tiles = 1;
    return config;
}

WearSpec spec_with(double endurance, double hot_fraction = 0.0) {
    WearSpec spec;
    spec.endurance_mean_writes = endurance;
    spec.hot_spot_fraction = hot_fraction;
    return spec;
}

TEST(CrossbarWritesTest, PerCellCountsAreMonotone) {
    Crossbar xb(8, 8);
    EXPECT_EQ(xb.writes(3, 4), 0u);
    EXPECT_EQ(xb.total_writes(), 0u);

    xb.program(3, 4, 1);
    xb.program(3, 4, 2);
    xb.program(0, 0, 3);
    EXPECT_EQ(xb.writes(3, 4), 2u);
    EXPECT_EQ(xb.writes(0, 0), 1u);
    EXPECT_EQ(xb.writes(7, 7), 0u);
    EXPECT_EQ(xb.total_writes(), 3u);
    EXPECT_EQ(xb.max_cell_writes(), 2u);

    // A bulk array reprogram advances every cell by the same charge, O(1).
    xb.add_uniform_writes(10);
    EXPECT_EQ(xb.writes(3, 4), 12u);
    EXPECT_EQ(xb.writes(7, 7), 10u);
    EXPECT_EQ(xb.uniform_writes(), 10u);
    EXPECT_EQ(xb.max_cell_writes(), 12u);
    EXPECT_EQ(xb.total_writes(), 3u + 10u * 64u);
}

TEST(WearModelTest, LifetimeDrawsAreDeterministicPerSeed) {
    const WearSpec spec = spec_with(1000.0, 0.3);
    const WearModel a(4, 16, 16, spec, 0.1, 42);
    const WearModel b(4, 16, 16, spec, 0.1, 42);
    const WearModel c(4, 16, 16, spec, 0.1, 43);

    bool any_differs = false;
    for (std::size_t x = 0; x < 4; ++x) {
        EXPECT_EQ(a.is_hot_spot(x), b.is_hot_spot(x));
        for (std::uint16_t r = 0; r < 16; ++r)
            for (std::uint16_t col = 0; col < 16; ++col) {
                const double la = a.cell_lifetime(x, r, col);
                EXPECT_GT(la, 0.0);
                EXPECT_TRUE(std::isfinite(la));
                EXPECT_DOUBLE_EQ(la, b.cell_lifetime(x, r, col));
                if (la != c.cell_lifetime(x, r, col)) any_differs = true;
            }
    }
    EXPECT_TRUE(any_differs);  // a different seed draws different lifetimes
}

TEST(WearModelTest, MeanLifetimeMatchesEnduranceKnob) {
    // The knob is the *mean* writes-to-failure (the Weibull scale is solved
    // via Gamma(1 + 1/k)); check the empirical mean over 4096 draws.
    const double endurance = 5000.0;
    const WearModel model(1, 64, 64, spec_with(endurance), 0.1, 7);
    double sum = 0.0;
    for (std::uint16_t r = 0; r < 64; ++r)
        for (std::uint16_t c = 0; c < 64; ++c) sum += model.cell_lifetime(0, r, c);
    const double mean = sum / 4096.0;
    EXPECT_NEAR(mean, endurance, 0.05 * endurance);
}

TEST(WearModelTest, HotSpotFractionBoundsAndSeverity) {
    const WearModel none(64, 8, 8, spec_with(1000.0, 0.0), 0.1, 5);
    const WearModel all(64, 8, 8, spec_with(1000.0, 1.0), 0.1, 5);
    const WearModel half(64, 8, 8, spec_with(1000.0, 0.5), 0.1, 5);
    std::size_t hot = 0;
    for (std::size_t x = 0; x < 64; ++x) {
        EXPECT_FALSE(none.is_hot_spot(x));
        EXPECT_TRUE(all.is_hot_spot(x));
        if (half.is_hot_spot(x)) ++hot;
    }
    EXPECT_GT(hot, 16u);  // loose binomial bounds around 32
    EXPECT_LT(hot, 48u);
    // Hot spots divide the endurance mean by the severity.
    for (std::size_t x = 0; x < 64; ++x)
        EXPECT_DOUBLE_EQ(all.crossbar_endurance(x), 1000.0 / 8.0);
}

TEST(WearModelTest, AdvanceFiresOncePerCellAndPinsFaults) {
    Accelerator acc(tiny_chip());
    WearModel model(acc.num_crossbars(), 16, 16, spec_with(100.0), 0.5, 9);

    // No writes yet: nothing can have expired.
    EXPECT_TRUE(model.advance(acc).empty());

    // Wear out every cell of crossbar 0 only.
    acc.crossbar(0).add_uniform_writes(1u << 20);
    const auto arrivals = model.advance(acc);
    EXPECT_EQ(arrivals.size(), 256u);
    EXPECT_EQ(model.total_worn(), 256u);
    for (const WornCell& cell : arrivals) EXPECT_EQ(cell.crossbar, 0u);
    EXPECT_DOUBLE_EQ(acc.crossbar(0).fault_map().fault_density(), 1.0);
    EXPECT_EQ(acc.crossbar(1).fault_map().num_faults(), 0u);
    // Both polarities appear at sa1_fraction = 0.5.
    EXPECT_GT(acc.crossbar(0).fault_map().num_sa0(), 0u);
    EXPECT_GT(acc.crossbar(0).fault_map().num_sa1(), 0u);

    // Already-worn cells are never reported again.
    EXPECT_TRUE(model.advance(acc).empty());
    EXPECT_EQ(model.total_worn(), 256u);
}

TEST(WearModelTest, ExistingFaultsKeepTheirType) {
    Accelerator acc(tiny_chip());
    FaultMap pre(16, 16);
    pre.add(2, 3, FaultType::kSA0);
    acc.crossbar(0).set_fault_map(std::move(pre));

    WearModel model(acc.num_crossbars(), 16, 16, spec_with(100.0),
                    /*sa1_fraction=*/1.0, 11);
    acc.crossbar(0).add_uniform_writes(1u << 20);
    const auto arrivals = model.advance(acc);
    // The pre-faulted cell wears out silently (nothing new to observe).
    EXPECT_EQ(arrivals.size(), 255u);
    EXPECT_EQ(model.total_worn(), 256u);
    EXPECT_EQ(acc.crossbar(0).fault_map().at(2, 3), FaultType::kSA0);
    EXPECT_EQ(acc.crossbar(0).fault_map().num_sa1(), 255u);
}

TEST(WearModelTest, NoArrivalsBeforeAnyLifetime) {
    Accelerator acc(tiny_chip());
    WearModel model(acc.num_crossbars(), 16, 16, spec_with(1e12), 0.1, 13);
    acc.crossbar(0).add_uniform_writes(1000);
    acc.crossbar(1).add_uniform_writes(1000);
    EXPECT_TRUE(model.advance(acc).empty());
    EXPECT_EQ(model.total_worn(), 0u);
    EXPECT_EQ(acc.crossbar(0).fault_map().num_faults(), 0u);
}

TEST(WearModelTest, HotSpotsWearOutFirst) {
    // Equal write traffic, 8x severity: hot crossbars must lose more cells.
    AcceleratorConfig config = tiny_chip();
    config.tile.crossbars_per_tile = 16;
    Accelerator acc(config);
    WearModel model(acc.num_crossbars(), 16, 16, spec_with(10000.0, 0.5), 0.1,
                    17);
    std::size_t hot_count = 0;
    for (std::size_t x = 0; x < acc.num_crossbars(); ++x) {
        if (model.is_hot_spot(x)) ++hot_count;
        acc.crossbar(x).add_uniform_writes(5000);  // endurance/2 of a cold cell
    }
    ASSERT_GT(hot_count, 0u);
    ASSERT_LT(hot_count, acc.num_crossbars());
    model.advance(acc);
    double hot_density = 0.0, cold_density = 0.0;
    for (std::size_t x = 0; x < acc.num_crossbars(); ++x) {
        const double d = acc.crossbar(x).fault_map().fault_density();
        if (model.is_hot_spot(x))
            hot_density += d / static_cast<double>(hot_count);
        else
            cold_density +=
                d / static_cast<double>(acc.num_crossbars() - hot_count);
    }
    EXPECT_GT(hot_density, 0.9);        // hot spots are nearly dead...
    EXPECT_LT(cold_density, 0.5);       // ...while cold crossbars survive
    EXPECT_GT(hot_density, 2.0 * cold_density);
}

/// The eager full scan advance() ran before its candidate lists, kept as the
/// oracle: every cell of a written crossbar draws its lifetime on the first
/// scan, and every checkpoint re-checks every live cell.
class FullScanWear {
public:
    FullScanWear(std::size_t num_crossbars, std::uint16_t rows,
                 std::uint16_t cols, const WearSpec& spec, double sa1_fraction,
                 std::uint64_t seed)
        : spec_(spec),
          sa1_fraction_(sa1_fraction),
          seed_(seed),
          num_crossbars_(num_crossbars),
          rows_(rows),
          cols_(cols),
          weibull_scale_(spec.endurance_mean_writes /
                         std::tgamma(1.0 + 1.0 / spec.weibull_shape)),
          min_lifetime_(num_crossbars, -1.0),
          worn_(num_crossbars),
          lifetimes_(num_crossbars) {}

    std::size_t total_worn() const { return total_worn_; }

    std::vector<WornCell> advance(Accelerator& accelerator) {
        std::vector<WornCell> arrivals;
        const std::size_t cells = static_cast<std::size_t>(rows_) * cols_;
        for (std::size_t x = 0; x < num_crossbars_; ++x) {
            Crossbar& xbar = accelerator.crossbar(x);
            const std::uint64_t max_writes = xbar.max_cell_writes();
            if (max_writes == 0) continue;
            if (min_lifetime_[x] >= 0.0 &&
                static_cast<double>(max_writes) < min_lifetime_[x])
                continue;
            auto& worn = worn_[x];
            auto& lifetimes = lifetimes_[x];
            if (worn.empty()) {
                worn.assign(cells, false);
                lifetimes.resize(cells);
                for (std::uint16_t r = 0; r < rows_; ++r)
                    for (std::uint16_t c = 0; c < cols_; ++c)
                        lifetimes[static_cast<std::size_t>(r) * cols_ + c] =
                            cell_lifetime(x, r, c);
            }
            double min_alive = std::numeric_limits<double>::infinity();
            const std::size_t first_new = arrivals.size();
            for (std::uint16_t r = 0; r < rows_; ++r) {
                for (std::uint16_t c = 0; c < cols_; ++c) {
                    const std::size_t i = static_cast<std::size_t>(r) * cols_ + c;
                    if (worn[i]) continue;
                    const double lifetime = lifetimes[i];
                    const std::uint64_t writes = xbar.writes(r, c);
                    if (static_cast<double>(writes) < lifetime) {
                        if (lifetime < min_alive) min_alive = lifetime;
                        continue;
                    }
                    worn[i] = true;
                    ++total_worn_;
                    if (xbar.fault_map().is_faulty(r, c)) continue;
                    const FaultType type =
                        cell_uniform(x, r, c, 0x5A1BULL) < sa1_fraction_
                            ? FaultType::kSA1
                            : FaultType::kSA0;
                    arrivals.push_back(WornCell{x, CellFault{r, c, type}, writes});
                }
            }
            if (arrivals.size() > first_new) {
                FaultMap map = xbar.fault_map();
                for (std::size_t a = first_new; a < arrivals.size(); ++a)
                    map.add(arrivals[a].fault.row, arrivals[a].fault.col,
                            arrivals[a].fault.type);
                xbar.set_fault_map(std::move(map));
            }
            min_lifetime_[x] = min_alive;
        }
        return arrivals;
    }

private:
    double cell_uniform(std::size_t crossbar, std::uint16_t row,
                        std::uint16_t col, std::uint64_t salt) const {
        std::uint64_t h = splitmix64(seed_ ^ salt);
        h = splitmix64(h ^ static_cast<std::uint64_t>(crossbar));
        h = splitmix64(h ^ (static_cast<std::uint64_t>(row) << 16 | col));
        return (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
    }

    bool is_hot_spot(std::size_t crossbar) const {
        if (spec_.hot_spot_fraction <= 0.0) return false;
        const std::uint64_t h = splitmix64(splitmix64(seed_ ^ 0x407507ULL) ^
                                           static_cast<std::uint64_t>(crossbar));
        return (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53 <
               spec_.hot_spot_fraction;
    }

    double cell_lifetime(std::size_t crossbar, std::uint16_t row,
                         std::uint16_t col) const {
        const double u = cell_uniform(crossbar, row, col, 0x11FE71ULL);
        double scale = weibull_scale_;
        if (is_hot_spot(crossbar)) scale /= spec_.hot_spot_severity;
        return scale * std::pow(-std::log1p(-u), 1.0 / spec_.weibull_shape);
    }

    WearSpec spec_;
    double sa1_fraction_;
    std::uint64_t seed_;
    std::size_t num_crossbars_;
    std::uint16_t rows_;
    std::uint16_t cols_;
    double weibull_scale_;
    std::vector<double> min_lifetime_;
    std::vector<std::vector<bool>> worn_;
    std::vector<std::vector<double>> lifetimes_;
    std::size_t total_worn_ = 0;
};

/// Drive the candidate-list model and the full scan side by side on two
/// copies of one chip: six 16x24 crossbars with 1000-write mean lifetimes,
/// pre-existing hard and soft faults, and a random schedule of array
/// charges, per-cell program()/reform() writes, BIST marches, soft-error
/// arrivals and one jump to 2^30 writes. They must agree after every
/// advance.
void expect_matches_full_scan(double shape, double hot, double sa1,
                              std::uint64_t seed) {
    constexpr std::size_t kXbars = 6;
    constexpr std::uint16_t kRows = 16, kCols = 24;
    AcceleratorConfig config;
    config.tile.crossbar_rows = kRows;
    config.tile.crossbar_cols = kCols;
    config.tile.crossbars_per_tile = kXbars;
    config.num_tiles = 1;
    WearSpec spec = spec_with(1000.0, hot);
    spec.weibull_shape = shape;
    WearModel model(kXbars, kRows, kCols, spec, sa1, seed);
    FullScanWear reference(kXbars, kRows, kCols, spec, sa1, seed);

    Accelerator a(config);
    a.inject_pre_deployment_faults(
        {.density = 0.05, .sa1_fraction = 0.5, .seed = seed});
    Rng soft(seed);
    a.inject_post_deployment_faults(0.03, 0.5, soft, /*soft=*/true);
    Accelerator b = a;
    const auto both = [&](const std::function<void(Crossbar&)>& op,
                          std::size_t x) {
        op(a.crossbar(x));
        op(b.crossbar(x));
    };

    Rng rng(seed);
    const auto any = [&rng](std::uint64_t bound) {
        return static_cast<std::uint16_t>(rng.next_below(bound));
    };
    for (int step = 0; step < 60; ++step) {
        for (std::size_t x = 0; x < kXbars; ++x) {
            if (!rng.next_bool(0.7)) continue;
            const std::uint64_t n = rng.next_below(60);
            both([n](Crossbar& xb) { xb.add_uniform_writes(n); }, x);
        }
        for (int k = 0; k < 8; ++k) {
            const std::size_t x = any(kXbars);
            const auto r = any(kRows), c = any(kCols);
            const auto level = static_cast<std::uint8_t>(any(4));
            both([=](Crossbar& xb) { xb.program(r, c, level); }, x);
        }
        for (int k = 0; k < 4; ++k) {
            const std::size_t x = any(kXbars);
            const auto r = any(kRows), c = any(kCols);
            const std::uint32_t pulses = 1u + any(40);
            both([=](Crossbar& xb) { xb.reform(r, c, pulses); }, x);
        }
        if (rng.next_bool(0.3))
            both([](Crossbar& xb) { bist_scan(xb); }, any(kXbars));
        if (rng.next_bool(0.2)) {
            const std::uint64_t stream = rng.next_u64();
            for (Accelerator* acc : {&a, &b}) {
                Rng local(stream);
                acc->inject_post_deployment_faults(0.01, 0.5, local,
                                                   /*soft=*/true);
            }
        }
        if (step == 40)
            both([](Crossbar& xb) { xb.add_uniform_writes(1ULL << 30); },
                 any(kXbars));
        if (step % 2 == 0) continue;  // a checkpoint every 2 steps

        const std::vector<WornCell> got = model.advance(a);
        const std::vector<WornCell> want = reference.advance(b);
        ASSERT_EQ(got.size(), want.size()) << "step " << step;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].crossbar, want[i].crossbar);
            EXPECT_EQ(got[i].fault.row, want[i].fault.row);
            EXPECT_EQ(got[i].fault.col, want[i].fault.col);
            EXPECT_EQ(got[i].fault.type, want[i].fault.type);
            EXPECT_EQ(got[i].at_writes, want[i].at_writes);
        }
        ASSERT_EQ(model.total_worn(), reference.total_worn()) << "step " << step;
        for (std::size_t x = 0; x < kXbars; ++x)
            ASSERT_TRUE(a.crossbar(x).fault_map() == b.crossbar(x).fault_map())
                << "step " << step << " crossbar " << x;
    }
    EXPECT_GT(model.total_worn(), 0u);  // the schedule must wear cells out
}

TEST(WearModelTest, AdvanceMatchesFullScan) {
    std::uint64_t seed = 100;
    for (double shape : {0.5, 1.0, 2.0, 8.0, 50.0})
        for (double hot : {0.0, 0.5})
            for (double sa1 : {0.0, 0.5, 1.0}) {
                SCOPED_TRACE(::testing::Message() << "shape " << shape << " hot "
                                                  << hot << " sa1 " << sa1);
                expect_matches_full_scan(shape, hot, sa1, ++seed);
            }
}

TEST(WearModelTest, DisabledModelIsANoOp) {
    Accelerator acc(tiny_chip());
    WearModel model;
    EXPECT_FALSE(model.enabled());
    acc.crossbar(0).add_uniform_writes(1u << 30);
    EXPECT_TRUE(model.advance(acc).empty());
    EXPECT_EQ(model.total_worn(), 0u);
}

TEST(WearModelTest, RejectsInvalidSpecs) {
    EXPECT_THROW(WearModel(1, 8, 8, spec_with(-1.0), 0.1, 1), InvalidArgument);
    WearSpec bad_shape = spec_with(100.0);
    bad_shape.weibull_shape = 0.0;
    EXPECT_THROW(WearModel(1, 8, 8, bad_shape, 0.1, 1), InvalidArgument);
    EXPECT_THROW(WearModel(1, 8, 8, spec_with(100.0, 1.5), 0.1, 1),
                 InvalidArgument);
    WearSpec bad_sev = spec_with(100.0);
    bad_sev.hot_spot_severity = 0.5;
    EXPECT_THROW(WearModel(1, 8, 8, bad_sev, 0.1, 1), InvalidArgument);
    EXPECT_THROW(WearModel(1, 8, 8, spec_with(100.0), 2.0, 1), InvalidArgument);
}

}  // namespace
}  // namespace fare
