// k-way graph partitioning — the repo's METIS stand-in plus a family of
// streaming partitioners behind a common registry-named interface.
//
// The paper partitions each dataset with METIS [17] to form Cluster-GCN-style
// mini-batches (Table II: 250-15,000 partitions). We reproduce METIS's
// algorithmic skeleton from scratch (multilevel coarsening / region-growing /
// FM refinement) and add the single-pass streaming family used by web-scale
// systems where the graph no longer fits a multilevel workflow:
//
//   multilevel    heavy-edge matching + greedy growing + boundary FM
//   ldg           Linear Deterministic Greedy (hard capacity cap)
//   weighted-ldg  LDG over degree+1 node weights (balances adjacency load)
//   fennel        streaming with the Fennel interpolated objective
//   refennel      Fennel plus re-streaming passes, best cut kept
//
// Every algorithm is reachable two ways: the free functions below, or the
// `Partitioner` table (find_partitioner("fennel")), which is what the sweep
// stack uses so partitioning strategy can be swept like any other knob. A
// `PartitionQuality` report (edge-cut rate, alpha/beta balance, replication
// factor) is computed once per partitioning and carried into CellResult
// serialization.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "graph/csr_graph.hpp"

namespace fare {

struct PartitionConfig {
    /// Allowed imbalance: max part weight <= (1 + epsilon) * ideal.
    double epsilon = 0.10;
    /// Stop coarsening when the graph has at most max(k * coarsen_factor,
    /// coarsen_floor) nodes.
    int coarsen_factor = 8;
    int coarsen_floor = 128;
    /// FM refinement passes per level.
    int refine_passes = 4;
    std::uint64_t seed = 1;
};

/// Result of a k-way partition.
struct Partitioning {
    int k = 0;
    std::vector<int> assignment;  ///< node -> part in [0, k)

    /// Undirected edges whose endpoints lie in different parts.
    std::size_t edge_cut(const CSRGraph& g) const;
    /// Max part size divided by ideal part size (1.0 = perfectly balanced).
    double balance(const CSRGraph& g) const;
    /// Nodes in each part.
    std::vector<std::vector<NodeId>> part_members() const;
};

/// Quality report for one partitioning, computed once and carried through
/// CellResult serialization (schema v4) so sweeps can compare partitioners.
struct PartitionQuality {
    std::string algo;  ///< registry name of the algorithm that produced it
    int parts = 0;
    std::size_t edge_cut = 0;  ///< undirected edges crossing parts
    /// edge_cut / num_edges; 0 on edgeless graphs.
    double edge_cut_rate = 0.0;
    /// Edge-balance factor: heaviest part's arc load * k / total arcs
    /// (1.0 = perfectly balanced adjacency work; 1.0 on edgeless graphs).
    double alpha = 0.0;
    /// Vertex-balance factor: largest part * k / n (the classic balance).
    double beta = 0.0;
    /// Mean number of distinct parts over each vertex's closed neighbourhood
    /// — the vertex-replication cost a distributed engine would pay.
    /// Always in [1, k].
    double replication_factor = 0.0;
};

/// Compute the quality report for `p` on `g`. Deterministic (no clocks);
/// O(V + E) time, O(k) extra space. `algo` is recorded verbatim.
PartitionQuality compute_quality(const CSRGraph& g, const Partitioning& p,
                                 std::string algo = {});

/// One row of the partitioner table, registry-named like schemes so the
/// sweep stack can select one per cell ("multilevel", "ldg", "weighted-ldg",
/// "fennel", "refennel").
struct Partitioner {
    /// Registry name (stable; used in CellSpec keys and serialized results).
    const char* name;
    /// True when the algorithm enforces the hard streaming capacity
    /// streaming_capacity(n, k) on part *node counts* — tests assert the
    /// bound only where the algorithm contracts it.
    bool bounded_balance;
    Partitioning (*partition)(const CSRGraph& g, int k, std::uint64_t seed);
};

/// All registered partitioners, in stable registration order.
std::span<const Partitioner> registered_partitioners();

/// Lookup by registry name; failure carries the list of valid names.
Expected<const Partitioner*> try_find_partitioner(const std::string& name);

/// Lookup by registry name; throws InvalidArgument on a miss.
const Partitioner& find_partitioner(const std::string& name);

/// Hard per-part node capacity shared by the streaming partitioners:
/// ceil(1.1 * n / k). Always satisfies capacity * k >= n, so a streaming
/// pass that skips full parts can never strand a node.
std::size_t streaming_capacity(std::size_t n, int k);

/// Multilevel k-way partition (METIS-style).
Partitioning partition_multilevel(const CSRGraph& g, int k,
                                  const PartitionConfig& cfg = {});

/// Single-pass streaming partitioner (Linear Deterministic Greedy). Enforces
/// the hard streaming_capacity(n, k) cap on part sizes.
Partitioning partition_ldg(const CSRGraph& g, int k, std::uint64_t seed = 1);

/// LDG over node weights w(v) = degree(v) + 1: balances per-part *adjacency
/// load* instead of node counts, which is what the crossbar mapper cares
/// about. The weight capacity ceil(1.1 * W / k) is enforced except when a
/// single heavy node cannot fit anywhere, in which case it joins the
/// lightest part — so part weight <= capacity + max node weight.
Partitioning partition_ldg_weighted(const CSRGraph& g, int k,
                                    std::uint64_t seed = 1);

/// Streaming Fennel partition (Tsourakakis et al., WSDM'14): score each
/// candidate part by |N(v) ∩ P| − α·γ·load^(γ−1) with γ = 3/2 and
/// α = m·k^(γ−1)/n^γ, under the hard streaming_capacity(n, k) cap.
Partitioning partition_fennel(const CSRGraph& g, int k, std::uint64_t seed = 1);

/// Re-streaming Fennel: run the Fennel pass, then re-stream `passes − 1`
/// more times letting every vertex reconsider its part; the best edge cut
/// seen is returned, so the result is never worse than the first Fennel
/// pass at the same seed.
Partitioning partition_refennel(const CSRGraph& g, int k,
                                std::uint64_t seed = 1, int passes = 3);

}  // namespace fare
