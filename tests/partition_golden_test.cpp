// Quality-regression goldens: every partitioner runs on two fixed graphs
// with a fixed seed and must land inside a recorded envelope. The envelopes
// were measured from the current implementations (values in the tables
// below) with headroom for small heuristic tweaks — a partitioner that
// suddenly cuts 10 points more edges, or blows its balance contract, fails
// here before it silently degrades every sweep that selects it by name.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/partitioner.hpp"

namespace fare {
namespace {

/// The SBM community graph at registry defaults (n=2000, m=11848).
const CSRGraph& sbm_graph() {
    static const CSRGraph g = make_sbm_dataset(SbmSpec{}).graph;
    return g;
}

/// Heavy-tailed synthetic graph (n=4000, m=22508): the regime where
/// multilevel's global view wins big over one-pass streaming.
const CSRGraph& power_law_graph() {
    static const CSRGraph g = [] {
        SyntheticGraphSpec spec;
        spec.num_nodes = 4000;
        spec.avg_degree = 12.0;
        spec.num_communities = 16;
        spec.homophily = 0.85;
        spec.power_law_alpha = 2.0;
        spec.seed = 17;
        return make_synthetic_graph(spec);
    }();
    return g;
}

constexpr std::uint64_t kSeed = 42;

struct Envelope {
    const char* algo;
    int k;
    double max_cut_rate;  ///< measured rate + headroom
    double max_beta;      ///< vertex-balance ceiling
};

void check_envelopes(const CSRGraph& g, const std::vector<Envelope>& golden) {
    for (const Envelope& e : golden) {
        const Partitioner& algo = find_partitioner(e.algo);
        const Partitioning p = algo.partition(g, e.k, kSeed);
        const PartitionQuality q = compute_quality(g, p, e.algo);
        SCOPED_TRACE(std::string(e.algo) + " k=" + std::to_string(e.k));
        EXPECT_LE(q.edge_cut_rate, e.max_cut_rate);
        EXPECT_LE(q.beta, e.max_beta);
        EXPECT_GE(q.replication_factor, 1.0);
        EXPECT_LE(q.replication_factor, static_cast<double>(e.k));
    }
}

TEST(PartitionGoldenTest, SbmCommunityGraphEnvelopes) {
    // Measured at seed 42:       cut_rate   beta
    //   multilevel   k=8/16      0.50/0.56  1.10/1.10
    //   ldg          k=8/16      0.60/0.70  1.04/1.02
    //   weighted-ldg k=8/16      0.62/0.70  1.02/1.06
    //   fennel       k=8/16      0.60/0.70  1.07/1.04
    //   refennel     k=8/16      0.44/0.60  1.10/1.10
    check_envelopes(sbm_graph(), {
                                     {"multilevel", 8, 0.58, 1.12},
                                     {"multilevel", 16, 0.64, 1.12},
                                     {"ldg", 8, 0.68, 1.105},
                                     {"ldg", 16, 0.77, 1.105},
                                     {"weighted-ldg", 8, 0.70, 1.15},
                                     {"weighted-ldg", 16, 0.77, 1.15},
                                     {"fennel", 8, 0.68, 1.105},
                                     {"fennel", 16, 0.77, 1.105},
                                     {"refennel", 8, 0.52, 1.105},
                                     {"refennel", 16, 0.68, 1.105},
                                 });
}

TEST(PartitionGoldenTest, PowerLawGraphEnvelopes) {
    // Measured at seed 42:       cut_rate   beta
    //   multilevel   k=8/16      0.14/0.22  1.01/1.10
    //   ldg          k=8/16      0.48/0.56  1.05/1.07
    //   weighted-ldg k=8/16      0.47/0.55  1.06/1.13
    //   fennel       k=8/16      0.48/0.56  1.08/1.10
    //   refennel     k=8/16      0.27/0.26  1.10/1.10
    check_envelopes(power_law_graph(), {
                                           {"multilevel", 8, 0.22, 1.12},
                                           {"multilevel", 16, 0.30, 1.12},
                                           {"ldg", 8, 0.56, 1.105},
                                           {"ldg", 16, 0.64, 1.105},
                                           {"weighted-ldg", 8, 0.55, 1.20},
                                           {"weighted-ldg", 16, 0.63, 1.20},
                                           {"fennel", 8, 0.56, 1.105},
                                           {"fennel", 16, 0.64, 1.105},
                                           {"refennel", 8, 0.35, 1.105},
                                           {"refennel", 16, 0.34, 1.105},
                                       });
}

TEST(PartitionGoldenTest, RelativeOrderingHolds) {
    // Structural expectations that must survive any re-tune: re-streaming
    // refines the one-pass Fennel cut, and multilevel's global coarsening
    // beats every one-pass streamer on the community-structured graph.
    for (const int k : {8, 16}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        const CSRGraph& g = power_law_graph();
        const std::size_t fennel_cut =
            partition_fennel(g, k, kSeed).edge_cut(g);
        const std::size_t refennel_cut =
            partition_refennel(g, k, kSeed, 3).edge_cut(g);
        EXPECT_LE(refennel_cut, fennel_cut);
        PartitionConfig ml_cfg;
        ml_cfg.seed = kSeed;
        const std::size_t multilevel_cut =
            partition_multilevel(g, k, ml_cfg).edge_cut(g);
        EXPECT_LT(multilevel_cut, fennel_cut);
        EXPECT_LT(multilevel_cut,
                  partition_ldg(g, k, kSeed).edge_cut(g));
    }
}

TEST(PartitionGoldenTest, QualityReportIsSeedStableAcrossRuns) {
    // The golden envelope only means something if the measurement itself is
    // reproducible: same graph + seed must give bit-identical quality.
    for (const Partitioner& algo : registered_partitioners()) {
        const PartitionQuality a = compute_quality(
            sbm_graph(), algo.partition(sbm_graph(), 8, kSeed), algo.name);
        const PartitionQuality b = compute_quality(
            sbm_graph(), algo.partition(sbm_graph(), 8, kSeed), algo.name);
        SCOPED_TRACE(algo.name);
        EXPECT_EQ(a.edge_cut, b.edge_cut);
        EXPECT_EQ(a.alpha, b.alpha);
        EXPECT_EQ(a.beta, b.beta);
        EXPECT_EQ(a.replication_factor, b.replication_factor);
    }
}

}  // namespace
}  // namespace fare
