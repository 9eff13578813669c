#include "common/rng.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fare {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
    }
}

TEST(RngTest, NextBelowRejectsZeroBound) {
    Rng rng(7);
    EXPECT_THROW(rng.next_below(0), InvalidArgument);
}

TEST(RngTest, NextBelowCoversAllResidues) {
    Rng rng(3);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i) ++seen[rng.next_below(8)];
    for (int count : seen) EXPECT_GT(count, 300);  // ~500 expected each
}

TEST(RngTest, DoubleInUnitInterval) {
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
    Rng rng(11);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.next_gaussian();
        sum += g;
        sum2 += g * g;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(var, 1.0, 0.06);
}

TEST(RngTest, PoissonMeanMatches) {
    Rng rng(13);
    for (double lambda : {0.5, 3.0, 25.0, 120.0}) {
        double sum = 0.0;
        const int n = 5000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(rng.next_poisson(lambda));
        EXPECT_NEAR(sum / n, lambda, lambda * 0.1 + 0.1) << "lambda=" << lambda;
    }
}

TEST(RngTest, PoissonZeroMeanIsZero) {
    Rng rng(1);
    EXPECT_EQ(rng.next_poisson(0.0), 0u);
}

TEST(RngTest, GammaMeanAndVarianceMatch) {
    Rng rng(17);
    const double shape = 1.5, scale = 4.0;
    double sum = 0.0, sum2 = 0.0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.next_gamma(shape, scale);
        EXPECT_GE(g, 0.0);
        sum += g;
        sum2 += g * g;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, shape * scale, 0.2);             // 6.0
    EXPECT_NEAR(var, shape * scale * scale, 1.5);      // 24.0
}

TEST(RngTest, GammaSubUnitShape) {
    Rng rng(19);
    double sum = 0.0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) sum += rng.next_gamma(0.5, 2.0);
    EXPECT_NEAR(sum / n, 1.0, 0.08);
}

TEST(RngTest, ShuffleIsPermutation) {
    Rng rng(23);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto orig = v;
    rng.shuffle(v);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, orig);
}

TEST(RngTest, BernoulliFrequency) {
    Rng rng(37);
    int hits = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        if (rng.next_bool(0.3)) ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

}  // namespace
}  // namespace fare
