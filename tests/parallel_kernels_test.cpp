// Determinism contract of the row-parallel numeric kernels: the threaded
// result must equal the forced-serial result bit for bit, for the GEMMs and
// both aggregation directions of BatchGraphView — and the pool itself must
// visit every index exactly once, degrade nested calls to serial, and
// propagate exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "models/gnn/batch_view.hpp"
#include "numeric/bitmatrix.hpp"
#include "numeric/matrix.hpp"

namespace fare {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.flat()) v = rng.uniform(-1.0f, 1.0f);
    return m;
}

// Sizes chosen to cross the kernels' parallel-grain threshold so the pool
// path genuinely runs (resolve_threads floors the pool at two workers even
// on a single-core machine).

TEST(ParallelKernelsTest, MatmulThreadedEqualsSerial) {
    Rng rng(1);
    const Matrix a = random_matrix(601, 310, rng);  // odd sizes: remainder paths
    const Matrix b = random_matrix(310, 67, rng);
    Matrix serial;
    {
        ParallelWidthScope force_serial(1);
        serial = matmul(a, b);
    }
    EXPECT_EQ(matmul(a, b), serial);
}

TEST(ParallelKernelsTest, MatmulAtBThreadedEqualsSerial) {
    Rng rng(2);
    const Matrix a = random_matrix(310, 601, rng);
    const Matrix b = random_matrix(310, 67, rng);
    Matrix serial;
    {
        ParallelWidthScope force_serial(1);
        serial = matmul_at_b(a, b);
    }
    EXPECT_EQ(matmul_at_b(a, b), serial);
}

TEST(ParallelKernelsTest, MatmulABtThreadedEqualsSerial) {
    Rng rng(3);
    const Matrix a = random_matrix(601, 310, rng);
    const Matrix b = random_matrix(67, 310, rng);
    Matrix serial;
    {
        ParallelWidthScope force_serial(1);
        serial = matmul_a_bt(a, b);
    }
    EXPECT_EQ(matmul_a_bt(a, b), serial);
}

BitMatrix random_bits(std::size_t n, double density, std::uint64_t seed) {
    BitMatrix bits(n, n);
    Rng rng(seed);
    for (auto& b : bits.bits) b = rng.next_bool(density) ? 1 : 0;
    return bits;
}

TEST(ParallelKernelsTest, AggregationThreadedEqualsSerial) {
    const BitMatrix bits = random_bits(640, 0.04, 7);
    const BatchGraphView view = BatchGraphView::from_bits(bits);
    Rng rng(8);
    const Matrix x = random_matrix(640, 48, rng);

    Matrix s_gcn, s_gcn_t, s_mean, s_mean_t;
    {
        ParallelWidthScope force_serial(1);
        s_gcn = view.gcn_multiply(x);
        s_gcn_t = view.gcn_multiply_t(x);
        s_mean = view.mean_multiply(x);
        s_mean_t = view.mean_multiply_t(x);
    }
    EXPECT_EQ(view.gcn_multiply(x), s_gcn);
    EXPECT_EQ(view.gcn_multiply_t(x), s_gcn_t);
    EXPECT_EQ(view.mean_multiply(x), s_mean);
    EXPECT_EQ(view.mean_multiply_t(x), s_mean_t);
}

TEST(ParallelKernelsTest, TransposeAggregationMatchesScatterReference) {
    // multiply_t gathers through a precomputed transpose index; pin it to
    // the scatter formulation it replaced (same ascending-row accumulation
    // order, so equality is exact).
    const BitMatrix bits = random_bits(96, 0.08, 9);
    const BatchGraphView view = BatchGraphView::from_bits(bits);
    Rng rng(10);
    const Matrix x = random_matrix(96, 5, rng);

    Matrix expected(96, 5);
    for (std::size_t r = 0; r < 96; ++r) {
        auto xrow = x.row(r);
        auto neighbors = view.row_neighbors(r);
        for (std::size_t e = 0; e < neighbors.size(); ++e) {
            // Recover the edge's A_gcn coefficient exactly with a 1-column
            // probe of the forward direction (a single product, no rounding).
            Matrix probe(96, 1);
            probe(neighbors[e], 0) = 1.0f;
            const float w = view.gcn_multiply(probe)(r, 0);
            auto yrow = expected.row(neighbors[e]);
            for (std::size_t f = 0; f < 5; ++f) yrow[f] += w * xrow[f];
        }
    }
    // Same ascending-source-row accumulation order => exact equality.
    EXPECT_EQ(view.gcn_multiply_t(x), expected);
}

TEST(ParallelForEachTest, VisitsEveryIndexOnceAcrossThePool) {
    const std::size_t count = 10000;
    std::vector<std::atomic<int>> visits(count);
    parallel_for_each(4, count, [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForEachTest, NestedCallsRunSerially) {
    std::atomic<int> total{0};
    parallel_for_each(4, 8, [&](std::size_t) {
        // Inside a pool worker: this must degrade to a plain loop instead of
        // deadlocking or oversubscribing.
        parallel_for_each(4, 16, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelForEachTest, PropagatesTheFirstException) {
    EXPECT_THROW(
        parallel_for_each(4, 64,
                          [](std::size_t i) {
                              if (i == 13) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
}

TEST(ParallelForEachTest, WidthScopeRestoresOnExit) {
    std::atomic<int> visited{0};
    {
        ParallelWidthScope outer(1);
        parallel_for_each(8, 32, [&](std::size_t) { visited.fetch_add(1); });
    }
    EXPECT_EQ(visited.load(), 32);
    // Scope gone: pool path works again.
    parallel_for_each(2, 32, [&](std::size_t) { visited.fetch_add(1); });
    EXPECT_EQ(visited.load(), 64);
}

TEST(ResolveThreadsTest, FareThreadsMustBeAPositiveInteger) {
    const char* saved = std::getenv("FARE_THREADS");
    const bool was_set = saved != nullptr;
    const std::string previous = was_set ? saved : "";
    setenv("FARE_THREADS", "3", 1);
    EXPECT_EQ(resolve_threads(0), 3u);
    EXPECT_EQ(resolve_threads(5), 5u);  // an explicit request skips the env
    for (const char* bad : {"3x", "abc", "0", "-2", "", "99999999999999999999999"}) {
        setenv("FARE_THREADS", bad, 1);
        EXPECT_THROW(resolve_threads(0), InvalidArgument) << "'" << bad << "'";
        EXPECT_EQ(resolve_threads(2), 2u);
    }
    if (was_set)
        setenv("FARE_THREADS", previous.c_str(), 1);
    else
        unsetenv("FARE_THREADS");
}

}  // namespace
}  // namespace fare
