// Cross-module property tests: randomized invariants that tie the pieces
// together (mapping cost <-> applied corruption, batching coverage,
// normalisation stochasticity, end-to-end determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fare/fare_trainer.hpp"
#include "fare/mapper.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "models/gnn/batch_view.hpp"
#include "reram/compiled_overlay.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

/// Applied corruption must equal the mapping's unweighted mismatch cost:
/// every weighted-cost unit the mapper reports corresponds to exactly one
/// flipped bit once weights are 1:1.
TEST(PropertyTest, AppliedFlipsEqualUnweightedMappingCost) {
    Rng rng(31);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 48;  // 3x3 blocks of 16
        BitMatrix adj(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                if (r != c && rng.next_bool(0.1)) adj.set(r, c, 1);

        FaultInjectionConfig fcfg;
        fcfg.density = 0.02 + 0.01 * trial;
        fcfg.sa1_fraction = 0.5;
        fcfg.seed = 100 + static_cast<std::uint64_t>(trial);
        const auto pool = inject_faults(12, 16, 16, fcfg);

        MapperConfig mcfg;
        mcfg.block_size = 16;
        mcfg.weights = {1.0, 1.0};  // unweighted: cost == bit flips
        FaultAwareMapper mapper(mcfg);
        const AdjacencyMapping mapping = mapper.map_batch(adj, pool);
        const BitMatrix eff = mapper.apply(adj, mapping, pool);

        std::size_t flips = 0;
        for (std::size_t i = 0; i < eff.bits.size(); ++i)
            if (eff.bits[i] != adj.bits[i]) ++flips;
        EXPECT_DOUBLE_EQ(static_cast<double>(flips), mapping.total_cost())
            << "trial " << trial;
    }
}

/// The fault-aware mapping never leaves more corruption than the naive one,
/// across densities and ratios (sweep).
class MapperDominance
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(MapperDominance, FareNeverWorseThanIdentity) {
    const auto [density, sa1] = GetParam();
    Rng rng(7);
    const std::size_t n = 64;
    BitMatrix adj(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            if (r != c && rng.next_bool(0.08)) adj.set(r, c, 1);
    FaultInjectionConfig fcfg;
    fcfg.density = density;
    fcfg.sa1_fraction = sa1;
    fcfg.seed = 77;
    const auto pool = inject_faults(8, 32, 32, fcfg);
    MapperConfig mcfg;
    mcfg.block_size = 32;
    FaultAwareMapper mapper(mcfg);
    EXPECT_LE(mapper.map_batch(adj, pool).total_cost(),
              mapper.map_identity(adj, pool).total_cost() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MapperDominance,
                         ::testing::Values(std::pair{0.01, 0.1},
                                           std::pair{0.03, 0.1},
                                           std::pair{0.05, 0.5},
                                           std::pair{0.08, 0.5},
                                           std::pair{0.02, 1.0}));

/// Cluster batches over random graphs always cover every node exactly once,
/// whatever the partitioner produced.
TEST(PropertyTest, BatchesPartitionNodesForRandomGraphs) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SbmSpec spec;
        spec.num_nodes = 200 + static_cast<NodeId>(seed) * 77;
        spec.num_classes = 4;
        spec.seed = seed;
        const Dataset ds = make_sbm_dataset(spec);
        const auto parts = partition_multilevel(ds.graph, 9, {});
        const auto batches = make_cluster_batches(ds.graph, parts, 2, seed);
        std::vector<NodeId> all;
        for (const auto& b : batches)
            all.insert(all.end(), b.nodes.begin(), b.nodes.end());
        std::sort(all.begin(), all.end());
        std::vector<NodeId> expect(ds.graph.num_nodes());
        std::iota(expect.begin(), expect.end(), 0u);
        EXPECT_EQ(all, expect) << "seed " << seed;
    }
}

/// Mean-aggregation rows always sum to one (row-stochastic), even on
/// corrupted, asymmetric adjacency.
TEST(PropertyTest, MeanAggregationRowStochasticUnderCorruption) {
    Rng rng(13);
    BitMatrix adj(40, 40);
    for (auto& b : adj.bits) b = rng.next_bool(0.07) ? 1 : 0;  // asymmetric
    const BatchGraphView view = BatchGraphView::from_bits(adj);
    Matrix ones(40, 1, 1.0f);
    const Matrix y = view.mean_multiply(ones);
    for (std::size_t r = 0; r < 40; ++r) EXPECT_NEAR(y(r, 0), 1.0f, 1e-5f);
}

/// Full pipeline determinism: identical seeds give identical accuracy for
/// every scheme (catches hidden nondeterminism in matching / corruption).
TEST(PropertyTest, SchemeRunsAreDeterministic) {
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    for (const Scheme s : {Scheme::kFaultUnaware, Scheme::kNeuronReorder,
                           Scheme::kClippingOnly, Scheme::kFARe}) {
        CellSpec cell;
        cell.workload = w;
        cell.scheme = s;
        cell.faults = FaultScenario::pre_deployment(0.03, 0.5);
        cell.seed = 42;
        cell.epochs = 6;
        const auto a = run_cell(cell);
        const auto b = run_cell(cell);
        EXPECT_DOUBLE_EQ(a.accuracy(), b.accuracy()) << scheme_name(s);
    }
}

/// Corrupted-then-clipped weights never exceed the clip threshold, for any
/// density (the comparator is the last element in the read path).
TEST(PropertyTest, ClipBoundHoldsForAllDensities) {
    Rng rng(17);
    Matrix w(32, 8);
    w.xavier_init(rng);
    for (const double density : {0.01, 0.05, 0.2, 0.5}) {
        FaultInjectionConfig cfg;
        cfg.density = density;
        cfg.sa1_fraction = 0.5;
        cfg.seed = 23;
        const auto maps = inject_faults(1, 32, 64, cfg);
        const WeightFaultGrid grid(32, 8, maps, 32, 64);
        const Matrix eff = CompiledFaultOverlay(grid, w.rows(), w.cols()).apply(w, 1.0f);
        EXPECT_LE(eff.max_abs(), 1.0f) << "density " << density;
    }
}

/// Fault injection preserves the SA0:SA1 ratio under clustering.
TEST(PropertyTest, ClusteringPreservesRatio) {
    for (const double sa1 : {0.1, 0.5}) {
        FaultInjectionConfig cfg;
        cfg.density = 0.05;
        cfg.sa1_fraction = sa1;
        cfg.cluster_shape = 1.0;
        cfg.seed = 29;
        const auto maps = inject_faults(64, 64, 64, cfg);
        std::size_t s0 = 0, s1 = 0;
        for (const auto& m : maps) {
            s0 += m.num_sa0();
            s1 += m.num_sa1();
        }
        const double frac = static_cast<double>(s1) / static_cast<double>(s0 + s1);
        EXPECT_NEAR(frac, sa1, 0.04);
    }
}

}  // namespace
}  // namespace fare
