#include "oracle/row_matcher_reference.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "oracle/suitor_match.hpp"

namespace fare {

namespace {

/// Weighted mismatch cost of putting logical block row `r` on physical row
/// faults `row_faults` (columns beyond the block are unused cells).
double row_cost(const BinaryBlock& block, std::uint16_t r,
                const std::vector<CellFault>& row_faults,
                const RowMatchWeights& weights) {
    double cost = 0.0;
    for (const CellFault& f : row_faults) {
        if (f.col >= block.size) continue;
        const std::uint8_t bit = block.at(r, f.col);
        if (f.type == FaultType::kSA0 && bit == 1)
            cost += weights.sa0;
        else if (f.type == FaultType::kSA1 && bit == 0)
            cost += weights.sa1;
    }
    return cost;
}

/// Per-physical-row fault lists, computed once.
std::vector<std::vector<CellFault>> faults_by_row(const FaultMap& map) {
    std::vector<std::vector<CellFault>> rows(map.rows());
    for (const CellFault& f : map.all_faults()) rows[f.row].push_back(f);
    return rows;
}

/// Physical rows cleanest first: base ascending, ties to the lower id.
/// The oracle's own copy, so it shares no code with what it checks.
std::vector<std::uint16_t> cleanest_order(const std::vector<double>& base) {
    std::vector<std::uint16_t> order(base.size());
    std::iota(order.begin(), order.end(), std::uint16_t{0});
    std::sort(order.begin(), order.end(), [&](std::uint16_t a, std::uint16_t b) {
        if (base[a] != base[b]) return base[a] < base[b];
        return a < b;
    });
    return order;
}

/// Matched pairs first, then the remaining logical rows on the remaining
/// physical rows, in `cleanest` order. Faulty row k is matching vertex
/// n + k. The oracle's own copy, like cleanest_order.
std::vector<std::uint16_t> assemble_perm(std::uint16_t n,
                                         const std::vector<std::uint16_t>& cleanest,
                                         const std::vector<std::uint16_t>& faulty_rows,
                                         const Matching& matching) {
    std::vector<std::uint16_t> perm(n, 0);
    std::vector<bool> log_used(n, false), phys_used(cleanest.size(), false);
    for (std::uint16_t r = 0; r < n; ++r) {
        if (matching.mate[r] == Matching::kUnmatched) continue;
        const std::uint16_t p = faulty_rows[matching.mate[r] - n];
        perm[r] = p;
        log_used[r] = true;
        phys_used[p] = true;
    }
    auto next = cleanest.begin();
    for (std::uint16_t r = 0; r < n; ++r) {
        if (log_used[r]) continue;
        while (phys_used[*next]) ++next;
        perm[r] = *next++;
    }
    return perm;
}

}  // namespace

RowMatchResult best_row_permutation_reference(const BinaryBlock& block,
                                              const FaultMap& map,
                                              const RowMatchWeights& weights) {
    const std::uint16_t n = block.size;
    const std::uint16_t phys = map.rows();
    FARE_CHECK(phys >= n, "crossbar has fewer rows than the block");

    const auto rows = faults_by_row(map);

    // Per-physical-row worst-case cost C_p (all faults mismatch) and the
    // benefit of each (logical, physical) pairing: benefit = C_p - cost.
    // Maximising matched benefit minimises total mismatch cost.
    std::vector<double> base(phys, 0.0);
    std::vector<std::uint16_t> faulty_rows;
    for (std::uint16_t p = 0; p < phys; ++p) {
        for (const CellFault& f : rows[p]) {
            if (f.col >= n) continue;
            base[p] += (f.type == FaultType::kSA1) ? weights.sa1 : weights.sa0;
        }
        if (base[p] > 0.0) faulty_rows.push_back(p);
    }

    // Bipartite benefit graph: logical rows [0, n), faulty physical rows
    // [n, n + faulty_rows.size()).
    std::vector<WeightedEdge> edges;
    for (std::size_t fi = 0; fi < faulty_rows.size(); ++fi) {
        const std::uint16_t p = faulty_rows[fi];
        for (std::uint16_t r = 0; r < n; ++r) {
            const double benefit = base[p] - row_cost(block, r, rows[p], weights);
            if (benefit > 0.0)
                edges.push_back({r, static_cast<std::uint32_t>(n + fi), benefit});
        }
    }
    const auto total = static_cast<std::uint32_t>(n + faulty_rows.size());
    const Matching matching = suitor_match(total, edges);

    RowMatchResult result;
    result.perm = assemble_perm(n, cleanest_order(base), faulty_rows, matching);
    std::size_t sa1_nonoverlap = 0;
    for (std::uint16_t r = 0; r < n; ++r) {
        result.cost += row_cost(block, r, rows[result.perm[r]], weights);
        for (const CellFault& f : rows[result.perm[r]])
            if (f.col < n && f.type == FaultType::kSA1 && block.at(r, f.col) == 0)
                ++sa1_nonoverlap;
    }
    result.sa1_nonoverlap = static_cast<double>(sa1_nonoverlap);
    return result;
}

}  // namespace fare
