#include "graph/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {

std::size_t Partitioning::edge_cut(const CSRGraph& g) const {
    std::size_t cut = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u)
        for (NodeId v : g.neighbors(u))
            if (u < v && assignment[u] != assignment[v]) ++cut;
    return cut;
}

double Partitioning::balance(const CSRGraph& g) const {
    std::vector<std::size_t> sizes(static_cast<std::size_t>(k), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
        ++sizes[static_cast<std::size_t>(assignment[v])];
    const double ideal = static_cast<double>(g.num_nodes()) / k;
    const auto max_size = *std::max_element(sizes.begin(), sizes.end());
    return static_cast<double>(max_size) / ideal;
}

std::vector<std::vector<NodeId>> Partitioning::part_members() const {
    std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(k));
    for (NodeId v = 0; v < assignment.size(); ++v)
        members[static_cast<std::size_t>(assignment[v])].push_back(v);
    return members;
}

namespace {

/// Weighted graph used internally during coarsening. Node weights track the
/// number of original vertices a coarse vertex represents; edge weights the
/// number of original edges a coarse edge aggregates.
struct WGraph {
    std::vector<std::size_t> offsets;
    std::vector<NodeId> adj;
    std::vector<std::uint32_t> eweight;
    std::vector<std::uint32_t> vweight;

    NodeId num_nodes() const { return static_cast<NodeId>(vweight.size()); }
};

WGraph from_csr(const CSRGraph& g) {
    WGraph w;
    w.offsets.assign(g.offsets().begin(), g.offsets().end());
    w.adj.assign(g.adjacency().begin(), g.adjacency().end());
    w.eweight.assign(g.num_arcs(), 1);
    w.vweight.assign(g.num_nodes(), 1);
    return w;
}

/// Heavy-edge matching: visit nodes in random order, match each unmatched
/// node with its unmatched neighbour of maximum edge weight.
std::vector<NodeId> heavy_edge_matching(const WGraph& g, Rng& rng) {
    const NodeId n = g.num_nodes();
    std::vector<NodeId> match(n, std::numeric_limits<NodeId>::max());
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    const auto unmatched = std::numeric_limits<NodeId>::max();
    for (NodeId u : order) {
        if (match[u] != unmatched) continue;
        NodeId best = unmatched;
        std::uint32_t best_w = 0;
        for (std::size_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
            const NodeId v = g.adj[e];
            if (v == u || match[v] != unmatched) continue;
            if (g.eweight[e] > best_w) {
                best_w = g.eweight[e];
                best = v;
            }
        }
        if (best != unmatched) {
            match[u] = best;
            match[best] = u;
        } else {
            match[u] = u;  // self-matched (carried over unchanged)
        }
    }
    return match;
}

struct CoarseLevel {
    WGraph graph;
    std::vector<NodeId> fine_to_coarse;
};

CoarseLevel contract(const WGraph& g, const std::vector<NodeId>& match) {
    const NodeId n = g.num_nodes();
    CoarseLevel level;
    level.fine_to_coarse.assign(n, 0);
    NodeId next = 0;
    for (NodeId u = 0; u < n; ++u) {
        const NodeId m = match[u];
        if (m >= u) level.fine_to_coarse[u] = next++;
    }
    for (NodeId u = 0; u < n; ++u) {
        const NodeId m = match[u];
        if (m < u) level.fine_to_coarse[u] = level.fine_to_coarse[m];
    }
    const NodeId cn = next;

    // Aggregate edges via a per-node scatter map.
    std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> coarse_adj(cn);
    level.graph.vweight.assign(cn, 0);
    for (NodeId u = 0; u < n; ++u)
        level.graph.vweight[level.fine_to_coarse[u]] += g.vweight[u];
    for (NodeId u = 0; u < n; ++u) {
        const NodeId cu = level.fine_to_coarse[u];
        for (std::size_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
            const NodeId cv = level.fine_to_coarse[g.adj[e]];
            if (cu == cv) continue;
            coarse_adj[cu].emplace_back(cv, g.eweight[e]);
        }
    }
    level.graph.offsets.assign(cn + 1, 0);
    for (NodeId cu = 0; cu < cn; ++cu) {
        auto& lst = coarse_adj[cu];
        std::sort(lst.begin(), lst.end());
        // Merge duplicate targets, summing weights.
        std::size_t w = 0;
        for (std::size_t r = 0; r < lst.size();) {
            std::size_t r2 = r;
            std::uint32_t sum = 0;
            while (r2 < lst.size() && lst[r2].first == lst[r].first) sum += lst[r2++].second;
            lst[w++] = {lst[r].first, sum};
            r = r2;
        }
        lst.resize(w);
        level.graph.offsets[cu + 1] = level.graph.offsets[cu] + w;
    }
    level.graph.adj.resize(level.graph.offsets[cn]);
    level.graph.eweight.resize(level.graph.offsets[cn]);
    for (NodeId cu = 0; cu < cn; ++cu) {
        std::size_t pos = level.graph.offsets[cu];
        for (auto [cv, ew] : coarse_adj[cu]) {
            level.graph.adj[pos] = cv;
            level.graph.eweight[pos] = ew;
            ++pos;
        }
    }
    return level;
}

/// Greedy region growing on the coarsest graph: seed k BFS fronts and grow
/// the lightest part one boundary vertex at a time.
std::vector<int> initial_partition(const WGraph& g, int k, double max_part_weight,
                                   Rng& rng) {
    const NodeId n = g.num_nodes();
    std::vector<int> part(n, -1);
    std::vector<double> load(static_cast<std::size_t>(k), 0.0);
    std::vector<std::vector<NodeId>> frontier(static_cast<std::size_t>(k));

    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    int seeded = 0;
    for (NodeId v : order) {
        if (seeded == k) break;
        if (part[v] != -1) continue;
        part[v] = seeded;
        load[static_cast<std::size_t>(seeded)] = g.vweight[v];
        frontier[static_cast<std::size_t>(seeded)].push_back(v);
        ++seeded;
    }

    NodeId assigned = static_cast<NodeId>(seeded);
    while (assigned < n) {
        // Grow the currently lightest part.
        int p = 0;
        for (int q = 1; q < k; ++q)
            if (load[static_cast<std::size_t>(q)] < load[static_cast<std::size_t>(p)]) p = q;
        auto& front = frontier[static_cast<std::size_t>(p)];
        NodeId pick = std::numeric_limits<NodeId>::max();
        while (!front.empty()) {
            const NodeId f = front.back();
            bool found = false;
            for (std::size_t e = g.offsets[f]; e < g.offsets[f + 1]; ++e) {
                const NodeId v = g.adj[e];
                if (part[v] == -1) {
                    pick = v;
                    found = true;
                    break;
                }
            }
            if (found) break;
            front.pop_back();
        }
        if (pick == std::numeric_limits<NodeId>::max()) {
            // Frontier exhausted (disconnected component): take any unassigned.
            for (NodeId v : order)
                if (part[v] == -1) {
                    pick = v;
                    break;
                }
        }
        part[pick] = p;
        load[static_cast<std::size_t>(p)] += g.vweight[pick];
        front.push_back(pick);
        ++assigned;
        (void)max_part_weight;
    }
    return part;
}

/// Boundary FM refinement: greedily move boundary vertices to the adjacent
/// part with the highest cut gain, respecting the balance bound.
void refine(const WGraph& g, int k, std::vector<int>& part, double max_part_weight,
            int passes) {
    const NodeId n = g.num_nodes();
    std::vector<double> load(static_cast<std::size_t>(k), 0.0);
    for (NodeId v = 0; v < n; ++v)
        load[static_cast<std::size_t>(part[v])] += g.vweight[v];

    std::vector<std::uint32_t> conn(static_cast<std::size_t>(k), 0);
    for (int pass = 0; pass < passes; ++pass) {
        bool moved = false;
        for (NodeId v = 0; v < n; ++v) {
            std::fill(conn.begin(), conn.end(), 0u);
            for (std::size_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e)
                conn[static_cast<std::size_t>(part[g.adj[e]])] += g.eweight[e];
            const int from = part[v];
            int best = from;
            std::int64_t best_gain = 0;
            for (int p = 0; p < k; ++p) {
                if (p == from) continue;
                if (load[static_cast<std::size_t>(p)] + g.vweight[v] > max_part_weight)
                    continue;
                const std::int64_t gain =
                    static_cast<std::int64_t>(conn[static_cast<std::size_t>(p)]) -
                    static_cast<std::int64_t>(conn[static_cast<std::size_t>(from)]);
                if (gain > best_gain) {
                    best_gain = gain;
                    best = p;
                }
            }
            if (best != from) {
                load[static_cast<std::size_t>(from)] -= g.vweight[v];
                load[static_cast<std::size_t>(best)] += g.vweight[v];
                part[v] = best;
                moved = true;
            }
        }
        if (!moved) break;
    }
}

}  // namespace

Partitioning partition_multilevel(const CSRGraph& g, int k, const PartitionConfig& cfg) {
    FARE_CHECK(k >= 1, "k must be >= 1");
    FARE_CHECK(g.num_nodes() >= static_cast<NodeId>(k), "fewer nodes than parts");
    Partitioning result;
    result.k = k;
    if (k == 1) {
        result.assignment.assign(g.num_nodes(), 0);
        return result;
    }

    Rng rng(cfg.seed);
    const double total_weight = static_cast<double>(g.num_nodes());
    const double max_part_weight = (1.0 + cfg.epsilon) * total_weight / k;
    const NodeId coarse_target = static_cast<NodeId>(
        std::max(k * cfg.coarsen_factor, cfg.coarsen_floor));

    // Coarsening phase.
    std::vector<CoarseLevel> levels;
    WGraph current = from_csr(g);
    while (current.num_nodes() > coarse_target) {
        auto match = heavy_edge_matching(current, rng);
        CoarseLevel level = contract(current, match);
        // Matching stalled (e.g. star graphs): stop coarsening.
        if (level.graph.num_nodes() >= current.num_nodes() * 95 / 100) break;
        levels.push_back(std::move(level));
        current = levels.back().graph;
    }

    // Initial partition on the coarsest graph.
    std::vector<int> part = initial_partition(current, k, max_part_weight, rng);
    refine(current, k, part, max_part_weight, cfg.refine_passes);

    // Uncoarsen with refinement at every level.
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
        const auto& mapping = it->fine_to_coarse;
        std::vector<int> finer(mapping.size());
        for (NodeId v = 0; v < mapping.size(); ++v) finer[v] = part[mapping[v]];
        part = std::move(finer);
        const WGraph* fine_graph = nullptr;
        if (it + 1 != levels.rend())
            fine_graph = &(it + 1)->graph;
        WGraph original;
        if (fine_graph == nullptr) {
            original = from_csr(g);
            fine_graph = &original;
        }
        refine(*fine_graph, k, part, max_part_weight, cfg.refine_passes);
    }

    result.assignment = std::move(part);
    return result;
}

std::size_t streaming_capacity(std::size_t n, int k) {
    return static_cast<std::size_t>(
        std::ceil(1.1 * static_cast<double>(n) / static_cast<double>(k)));
}

PartitionQuality compute_quality(const CSRGraph& g, const Partitioning& p,
                                 std::string algo) {
    FARE_CHECK(p.k >= 1, "partitioning has no parts");
    FARE_CHECK(p.assignment.size() == g.num_nodes(),
               "assignment size does not match graph");
    PartitionQuality q;
    q.algo = std::move(algo);
    q.parts = p.k;

    const std::size_t k = static_cast<std::size_t>(p.k);
    const NodeId n = g.num_nodes();
    std::vector<std::size_t> nodes_per(k, 0);
    std::vector<std::size_t> arcs_per(k, 0);
    std::size_t cut = 0;
    for (NodeId u = 0; u < n; ++u) {
        const auto pu = static_cast<std::size_t>(p.assignment[u]);
        ++nodes_per[pu];
        for (NodeId v : g.neighbors(u)) {
            ++arcs_per[pu];
            if (u < v && p.assignment[u] != p.assignment[v]) ++cut;
        }
    }
    q.edge_cut = cut;
    q.edge_cut_rate = g.num_edges() > 0
                          ? static_cast<double>(cut) / static_cast<double>(g.num_edges())
                          : 0.0;
    const auto max_nodes = *std::max_element(nodes_per.begin(), nodes_per.end());
    q.beta = n > 0 ? static_cast<double>(max_nodes) * static_cast<double>(k) /
                         static_cast<double>(n)
                   : 1.0;
    const auto max_arcs = *std::max_element(arcs_per.begin(), arcs_per.end());
    q.alpha = g.num_arcs() > 0
                  ? static_cast<double>(max_arcs) * static_cast<double>(k) /
                        static_cast<double>(g.num_arcs())
                  : 1.0;

    // Replication factor: distinct parts across each vertex's closed
    // neighbourhood, averaged. A per-part stamp array keeps this O(V + E).
    std::vector<NodeId> stamp(k, std::numeric_limits<NodeId>::max());
    std::size_t replicas = 0;
    for (NodeId u = 0; u < n; ++u) {
        stamp[static_cast<std::size_t>(p.assignment[u])] = u;
        ++replicas;
        for (NodeId v : g.neighbors(u)) {
            const auto pv = static_cast<std::size_t>(p.assignment[v]);
            if (stamp[pv] != u) {
                stamp[pv] = u;
                ++replicas;
            }
        }
    }
    q.replication_factor =
        n > 0 ? static_cast<double>(replicas) / static_cast<double>(n) : 1.0;
    return q;
}

namespace {

Partitioning multilevel(const CSRGraph& g, int k, std::uint64_t seed) {
    PartitionConfig cfg;
    cfg.seed = seed;
    return partition_multilevel(g, k, cfg);
}

Partitioning refennel(const CSRGraph& g, int k, std::uint64_t seed) {
    return partition_refennel(g, k, seed);
}

constexpr Partitioner kPartitioners[] = {
    {"multilevel", false, &multilevel},
    {"ldg", true, &partition_ldg},
    {"weighted-ldg", false, &partition_ldg_weighted},
    {"fennel", true, &partition_fennel},
    {"refennel", true, &refennel},
};

}  // namespace

std::span<const Partitioner> registered_partitioners() { return kPartitioners; }

Expected<const Partitioner*> try_find_partitioner(const std::string& name) {
    for (const Partitioner& p : kPartitioners)
        if (name == p.name) return &p;
    std::ostringstream os;
    os << "unknown partitioner '" << name << "' (valid:";
    for (const Partitioner& p : kPartitioners) os << ' ' << p.name;
    os << ')';
    return Expected<const Partitioner*>::failure(os.str());
}

const Partitioner& find_partitioner(const std::string& name) {
    auto found = try_find_partitioner(name);
    if (!found) throw InvalidArgument(found.error());
    return *found.value();
}

}  // namespace fare
