#include "fare/row_matcher.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "fare/bsuitor.hpp"
#include "fare/hungarian.hpp"

namespace fare {

namespace {

using Word = std::uint64_t;
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

void set_bit(Word* bits, std::size_t i) { bits[i / kWordBits] |= Word{1} << (i % kWordBits); }

bool test_bit(const Word* bits, std::size_t i) {
    return (bits[i / kWordBits] >> (i % kWordBits)) & 1u;
}

/// Set bit c of `out` for every byte c of `bytes` whose bit `shift` is set,
/// eight bytes per multiply: the masked bytes' low bits gather into the top
/// byte of the product.
void pack_bits(const std::uint8_t* bytes, std::size_t len, unsigned shift, Word* out) {
    std::size_t c = 0;
    for (; c + 8 <= len; c += 8) {
        Word x = 0;  // byte k in bits [8k, 8k + 8)
        if constexpr (std::endian::native == std::endian::little)
            std::memcpy(&x, bytes + c, sizeof x);
        else
            for (std::size_t k = 0; k < 8; ++k) x |= Word{bytes[c + k]} << (8 * k);
        const Word low_bits = (x >> shift) & 0x0101010101010101ull;
        out[c / kWordBits] |= ((low_bits * 0x0102040810204080ull) >> 56) << (c % kWordBits);
    }
    for (; c < len; ++c) out[c / kWordBits] |= Word{(bytes[c] >> shift) & 1u} << (c % kWordBits);
}

/// First index in [from, limit) whose bit is clear, or `limit`.
std::size_t next_clear_bit(const Word* bits, std::size_t from, std::size_t limit) {
    if (from >= limit) return limit;
    std::size_t w = from / kWordBits;
    Word free = ~bits[w] & (~Word{0} << (from % kWordBits));
    while (free == 0) {
        if (++w * kWordBits >= limit) return limit;
        free = ~bits[w];
    }
    return std::min(limit, w * kWordBits + static_cast<std::size_t>(std::countr_zero(free)));
}

/// Bit image of one (block, crossbar) pair: the block's rows and columns as
/// bitsets, and per physical row the columns < n that hold SA0 and SA1
/// faults. A pairing's mismatches are one mask expression away.
class BitImage {
public:
    BitImage(const BinaryBlock& block, const FaultMap& map)
        : n_(block.size),
          phys_(map.rows()),
          words_(words_for(n_)),
          bits_(words_ * (2 * std::size_t{n_} + 2 * std::size_t{phys_}), 0) {
        for (std::uint16_t r = 0; r < n_; ++r) {
            Word* bits = mutable_at(r);
            pack_bits(block.bits.data() + std::size_t{r} * n_, n_, 0, bits);
            for (std::size_t w = 0; w < words_; ++w)
                for (Word rest = bits[w]; rest != 0; rest &= rest - 1)
                    set_bit(mutable_at(n_ + w * kWordBits +
                                       static_cast<std::size_t>(std::countr_zero(rest))),
                            r);
        }
        // Fault cells hold FaultType codes: bit 0 marks SA0 (1), bit 1 SA1 (2).
        const std::size_t cols = std::min<std::size_t>(n_, map.cols());
        for (std::uint16_t p = 0; p < phys_; ++p) {
            const std::uint8_t* cells = map.row_cells(p).data();
            pack_bits(cells, cols, 0, mutable_at(sa0_slot(p)));
            pack_bits(cells, cols, 1, mutable_at(sa0_slot(p) + 1));
        }
    }

    std::uint16_t n() const { return n_; }
    std::uint16_t phys() const { return phys_; }
    std::size_t words() const { return words_; }

    /// Block row r: bit c set when the block stores a 1 at (r, c).
    const Word* row(std::uint16_t r) const { return at(r); }
    /// Block column c: bit r set when the block stores a 1 at (r, c).
    const Word* col(std::uint16_t c) const { return at(n_ + std::size_t{c}); }
    /// Columns (< n) of physical row p stuck at 0 / at 1.
    const Word* sa0(std::uint16_t p) const { return at(sa0_slot(p)); }
    const Word* sa1(std::uint16_t p) const { return sa0(p) + words_; }

    /// Weighted mismatch cost of storing the n-bit row `stored` on physical
    /// row p: w0 per SA0 cell under a 1 and w1 per SA1 cell under a 0, added
    /// in column order — the per-fault running sum of the reference path,
    /// so the two agree bit for bit for any weights.
    double cost(const Word* stored, std::uint16_t p, const RowMatchWeights& weights) const {
        double cost = 0.0;
        for (std::size_t w = 0; w < words_; ++w) {
            const Word sa1_cells = sa1(p)[w];
            for (Word miss = (sa0(p)[w] & stored[w]) | (sa1_cells & ~stored[w]); miss != 0;
                 miss &= miss - 1)
                cost += ((sa1_cells >> std::countr_zero(miss)) & 1u) != 0 ? weights.sa1
                                                                          : weights.sa0;
        }
        return cost;
    }

    /// Cost of the whole block under perm (logical r -> physical perm[r]):
    /// row costs added in row order.
    double cost(const std::vector<std::uint16_t>& perm, const RowMatchWeights& weights) const {
        double total = 0.0;
        for (std::uint16_t r = 0; r < n_; ++r) total += cost(row(r), perm[r], weights);
        return total;
    }

    /// SA1 cells under a stored 0 across the block under perm.
    std::size_t sa1_misses(const std::vector<std::uint16_t>& perm) const {
        std::size_t count = 0;
        for (std::uint16_t r = 0; r < n_; ++r)
            for (std::size_t w = 0; w < words_; ++w)
                count += static_cast<std::size_t>(std::popcount(sa1(perm[r])[w] & ~row(r)[w]));
        return count;
    }

private:
    // Bitsets in order: n block rows, n block columns, then (SA0, SA1) per
    // physical row.
    std::size_t sa0_slot(std::uint16_t p) const { return 2 * std::size_t{n_} + 2 * std::size_t{p}; }
    const Word* at(std::size_t slot) const { return bits_.data() + slot * words_; }
    Word* mutable_at(std::size_t slot) { return bits_.data() + slot * words_; }

    std::uint16_t n_;
    std::uint16_t phys_;
    std::size_t words_;
    std::vector<Word> bits_;
};

/// Checked image of `block` under `perm` for the public cost functions.
BitImage checked_image(const BinaryBlock& block, const FaultMap& map,
                       const std::vector<std::uint16_t>& perm) {
    FARE_CHECK(perm.size() == block.size, "perm size mismatch");
    for (const std::uint16_t p : perm)
        FARE_CHECK(p < map.rows(), "perm target out of range");
    return BitImage(block, map);
}

/// FARe's row benefit graph (benefit(r, p) = base(p) - cost(r, p), kept when
/// positive) over logical rows [0, n) and faulty physical rows [n, n + F),
/// without materialising it. A block row with no 1 in p's fault columns
/// ("does not touch p") meets every SA1 of p under a 0 and no SA0 under a
/// 1, so all such rows share p's default benefit d(p) = base(p) - w1·|SA1_p|
/// (the SA1 term summed per fault); only the touching pairs get explicit
/// lists. next() merges a vertex's explicit list with its default class in
/// proposes_before order, which is exactly the order of the materialised
/// graph's sorted lists.
class ImplicitBenefitGraph {
public:
    ImplicitBenefitGraph(const BitImage& image, const RowMatchWeights& weights)
        : n_(image.n()), row_words_(image.words()), base_(image.phys(), 0.0) {
        // Storing p's own SA0 mask mismatches every fault of p; storing
        // zeros mismatches exactly its SA1 cells, as does every row that
        // does not touch p.
        const std::vector<Word> zeros(row_words_, 0);
        for (std::uint16_t p = 0; p < image.phys(); ++p) {
            base_[p] = image.cost(image.sa0(p), p, weights);
            if (base_[p] > 0.0) {
                faulty_.push_back(p);
                default_.push_back(base_[p] - image.cost(zeros.data(), p, weights));
            }
        }
        const std::size_t num_faulty = faulty_.size();
        faulty_words_ = words_for(num_faulty);
        touches_.assign(num_faulty * row_words_, 0);
        touched_by_.assign(std::size_t{n_} * faulty_words_, 0);

        // Explicit lists: every touching pair (block-column bitsets OR-ed over
        // p's fault columns), priced off the image.
        std::vector<WeightedEdge> edges;
        for (std::uint32_t fi = 0; fi < num_faulty; ++fi) {
            const std::uint16_t p = faulty_[fi];
            Word* touch = touches_.data() + fi * row_words_;
            for (std::size_t w = 0; w < row_words_; ++w)
                for (Word cols = image.sa0(p)[w] | image.sa1(p)[w]; cols != 0;
                     cols &= cols - 1) {
                    const auto c = static_cast<std::uint16_t>(
                        w * kWordBits + static_cast<std::size_t>(std::countr_zero(cols)));
                    for (std::size_t k = 0; k < row_words_; ++k) touch[k] |= image.col(c)[k];
                }
            for (std::size_t w = 0; w < row_words_; ++w)
                for (Word rows = touch[w]; rows != 0; rows &= rows - 1) {
                    const auto r = static_cast<std::uint16_t>(
                        w * kWordBits + static_cast<std::size_t>(std::countr_zero(rows)));
                    set_bit(touched_by_.data() + std::size_t{r} * faulty_words_, fi);
                    edges.push_back({r, n_ + fi, base_[p] - image.cost(image.row(r), p, weights)});
                }
        }
        explicit_ = CandidateLists(num_vertices(), edges);

        // Default classes: a block row's is every faulty row with d > 0 in
        // (d desc, id asc) order; a faulty row's is every block row ascending.
        for (std::uint32_t fi = 0; fi < num_faulty; ++fi)
            if (default_[fi] > 0.0) by_default_.push_back(fi);
        std::sort(by_default_.begin(), by_default_.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      if (default_[a] != default_[b]) return default_[a] > default_[b];
                      return a < b;
                  });
        next_default_.assign(num_vertices(), 0);
    }

    std::uint32_t num_vertices() const {
        return n_ + static_cast<std::uint32_t>(faulty_.size());
    }
    /// Cost of mismatching every fault, per physical row.
    const std::vector<double>& base() const { return base_; }
    /// Physical rows with base > 0, ascending; faulty row k is vertex n + k.
    const std::vector<std::uint16_t>& faulty_rows() const { return faulty_; }

    /// u's next candidate: the better head of its explicit list and its
    /// default class, skipping default entries that u touches.
    bool next(std::uint32_t u, SuitorCandidate& out) {
        SuitorCandidate fallback;
        bool has_default = false;
        std::uint32_t& d = next_default_[u];
        if (u < n_) {
            const Word* touched = touched_by_.data() + std::size_t{u} * faulty_words_;
            while (d < by_default_.size() && test_bit(touched, by_default_[d])) ++d;
            if (d < by_default_.size()) {
                has_default = true;
                fallback = {default_[by_default_[d]], n_ + by_default_[d]};
            }
        } else if (const std::uint32_t fi = u - n_; default_[fi] > 0.0) {
            d = static_cast<std::uint32_t>(
                next_clear_bit(touches_.data() + fi * row_words_, d, n_));
            if (d < n_) {
                has_default = true;
                fallback = {default_[fi], d};
            }
        }
        const SuitorCandidate* head = explicit_.head(u);
        if (head != nullptr && (!has_default || proposes_before(*head, fallback))) {
            out = *head;
            explicit_.pop(u);
            return true;
        }
        if (!has_default) return false;
        out = fallback;
        ++d;
        return true;
    }

private:
    std::uint32_t n_;
    std::size_t row_words_;
    std::size_t faulty_words_ = 0;
    std::vector<double> base_;
    std::vector<std::uint16_t> faulty_;
    std::vector<double> default_;          // d(p) per faulty index
    std::vector<Word> touches_;            // per faulty index: block rows touching it
    std::vector<Word> touched_by_;         // per block row: faulty indices it touches
    CandidateLists explicit_;              // touching pairs with benefit > 0
    std::vector<std::uint32_t> by_default_;  // faulty indices with d > 0, (d desc, id asc)
    std::vector<std::uint32_t> next_default_;
};

/// Assemble the permutation: matched pairs first, then spread the remaining
/// logical rows over the remaining physical rows, cleanest (lowest base)
/// first. Faulty row k is matching vertex n + k.
std::vector<std::uint16_t> assemble_perm(std::uint16_t n, const std::vector<double>& base,
                                         const std::vector<std::uint16_t>& faulty_rows,
                                         const BMatching& matching) {
    const auto phys = static_cast<std::uint16_t>(base.size());
    std::vector<std::uint16_t> perm(n, 0);
    std::vector<bool> log_used(n, false), phys_used(phys, false);
    for (std::uint16_t r = 0; r < n; ++r) {
        const auto& partners = matching.partners[r];
        if (partners.empty()) continue;
        const std::uint16_t p = faulty_rows[partners.front() - n];
        perm[r] = p;
        log_used[r] = true;
        phys_used[p] = true;
    }
    std::vector<std::uint16_t> free_phys;
    for (std::uint16_t p = 0; p < phys; ++p)
        if (!phys_used[p]) free_phys.push_back(p);
    std::sort(free_phys.begin(), free_phys.end(),
              [&](std::uint16_t a, std::uint16_t b) {
                  if (base[a] != base[b]) return base[a] < base[b];
                  return a < b;
              });
    std::size_t next = 0;
    for (std::uint16_t r = 0; r < n; ++r) {
        if (log_used[r]) continue;
        perm[r] = free_phys[next++];
    }
    return perm;
}

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

}  // namespace

double mapping_cost(const BinaryBlock& block, const FaultMap& map,
                    const std::vector<std::uint16_t>& perm,
                    const RowMatchWeights& weights) {
    return checked_image(block, map, perm).cost(perm, weights);
}

std::size_t sa1_nonoverlap_count(const BinaryBlock& block, const FaultMap& map,
                                 const std::vector<std::uint16_t>& perm) {
    return checked_image(block, map, perm).sa1_misses(perm);
}

RowMatchResult best_row_permutation(const BinaryBlock& block, const FaultMap& map,
                                    const RowMatchWeights& weights) {
    const std::uint16_t n = block.size;
    FARE_CHECK(map.rows() >= n, "crossbar has fewer rows than the block");
    const BitImage image(block, map);
    ImplicitBenefitGraph graph(image, weights);
    const std::uint32_t total = graph.num_vertices();
    const BMatching matching = bsuitor_match_from(
        total, std::vector<std::uint32_t>(total, 1),
        [&](std::uint32_t u, SuitorCandidate& out) { return graph.next(u, out); });

    RowMatchResult result;
    result.perm = assemble_perm(n, graph.base(), graph.faulty_rows(), matching);
    result.cost = image.cost(result.perm, weights);
    result.sa1_nonoverlap = static_cast<double>(image.sa1_misses(result.perm));
    return result;
}

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
    const BMatching matching =
        bsuitor_match(total, edges, std::vector<std::uint32_t>(total, 1));

    RowMatchResult result;
    result.perm = assemble_perm(n, base, faulty_rows, matching);
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

RowMatchResult best_row_permutation_exact(const BinaryBlock& block,
                                          const FaultMap& map,
                                          const RowMatchWeights& weights) {
    const std::uint16_t n = block.size;
    const std::uint16_t phys = map.rows();
    FARE_CHECK(phys >= n, "crossbar has fewer rows than the block");
    const auto rows = faults_by_row(map);

    std::vector<double> cost(static_cast<std::size_t>(n) * phys, 0.0);
    for (std::uint16_t r = 0; r < n; ++r)
        for (std::uint16_t p = 0; p < phys; ++p)
            cost[static_cast<std::size_t>(r) * phys + p] =
                row_cost(block, r, rows[p], weights);

    const AssignmentResult assignment = hungarian_min_cost(n, phys, cost);
    RowMatchResult result;
    result.perm.assign(n, 0);
    for (std::uint16_t r = 0; r < n; ++r)
        result.perm[r] = static_cast<std::uint16_t>(assignment.row_to_col[r]);
    result.cost = assignment.total_cost;
    result.sa1_nonoverlap = static_cast<double>(
        sa1_nonoverlap_count(block, map, result.perm));
    return result;
}

}  // namespace fare
