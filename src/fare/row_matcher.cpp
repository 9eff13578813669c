#include "fare/row_matcher.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <optional>

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

/// w as a count weight: a non-negative integer no larger than 2^32, so that
/// w times a row's mismatch count (< 2^16) stays an exact double.
std::optional<std::uint64_t> count_weight(double w) {
    if (!(w >= 0.0 && w <= 0x1p32)) return std::nullopt;  // NaN fails too
    const auto count = static_cast<std::uint64_t>(w);
    if (static_cast<double>(count) != w) return std::nullopt;
    return count;
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

/// Checks `perm` against `block` and `map` for the public cost functions.
void check_perm(const BinaryBlock& block, const FaultMap& map,
                const std::vector<std::uint16_t>& perm) {
    FARE_CHECK(perm.size() == block.size, "perm size mismatch");
    for (const std::uint16_t p : perm)
        FARE_CHECK(p < map.rows(), "perm target out of range");
}

/// Physical rows cleanest first: base ascending, ties to the lower id.
std::vector<std::uint16_t> cleanest_order(const std::vector<double>& base) {
    std::vector<std::uint16_t> order(base.size());
    std::iota(order.begin(), order.end(), std::uint16_t{0});
    std::sort(order.begin(), order.end(), [&](std::uint16_t a, std::uint16_t b) {
        if (base[a] != base[b]) return base[a] < base[b];
        return a < b;
    });
    return order;
}

/// Assemble the permutation: matched pairs first, then the remaining
/// logical rows on the remaining physical rows, in `cleanest` order. Faulty
/// row k is matching vertex n + k.
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

/// The distinct positive benefits of one solve, each under a dense id: an
/// open-addressed table keyed on the benefit's bits, kept at most half
/// full, so a lookup is O(1). A slot holds id + 1, or 0 when empty. Integer
/// weights leave a handful of distinct benefits per solve, and ranks()
/// sorts only those.
class BenefitIds {
public:
    std::uint32_t id(double benefit) {
        const auto key = std::bit_cast<std::uint64_t>(benefit);
        std::size_t s = slot_of(key);
        for (; slots_[s] != 0; s = (s + 1) & (slots_.size() - 1))
            if (std::bit_cast<std::uint64_t>(values_[slots_[s] - 1]) == key)
                return slots_[s] - 1;
        values_.push_back(benefit);
        const auto id = static_cast<std::uint32_t>(values_.size() - 1);
        slots_[s] = id + 1;
        if (2 * values_.size() > slots_.size()) grow();
        return id;
    }
    double value(std::uint32_t id) const { return values_[id]; }
    /// Each id's rank, heaviest benefit first (the values are distinct).
    std::vector<std::uint32_t> ranks() const {
        std::vector<std::uint32_t> by_weight(values_.size());
        std::iota(by_weight.begin(), by_weight.end(), 0u);
        std::sort(by_weight.begin(), by_weight.end(),
                  [&](std::uint32_t a, std::uint32_t b) { return values_[a] > values_[b]; });
        std::vector<std::uint32_t> rank(values_.size());
        for (std::uint32_t k = 0; k < by_weight.size(); ++k) rank[by_weight[k]] = k;
        return rank;
    }

private:
    std::size_t slot_of(std::uint64_t key) const {
        return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    void grow() {
        slots_.assign(2 * slots_.size(), 0);
        --shift_;
        for (std::uint32_t id = 0; id < values_.size(); ++id) {
            std::size_t s = slot_of(std::bit_cast<std::uint64_t>(values_[id]));
            while (slots_[s] != 0) s = (s + 1) & (slots_.size() - 1);
            slots_[s] = id + 1;
        }
    }

    std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(16, 0);
    unsigned shift_ = 60;  // 64 - log2(slots_.size())
    std::vector<double> values_;
};

/// One row matching as a suitor_match_from source: FARe's row benefit
/// graph (benefit(r, p) = base(p) - cost(r, p), kept when positive) over
/// block rows [0, n) and faulty rows [n, n + F), without materialising it.
/// Only the pairs that touch (block-column bitsets OR-ed over p's fault
/// columns) are priced, once each, and listed on both sides. The pairs
/// arrive in (faulty row, block row) order, so a stable counting sort by
/// benefit rank, heaviest first, and one scatter lay out every list in
/// proposes_before order (weight desc, partner asc) with no comparison
/// sort; each pair is listed once by construction. next() merges a
/// vertex's list with its default class in proposes_before order, which is
/// exactly the order of the materialised graph's sorted lists: for a block
/// row, by_default minus the faulty rows it touches; for a faulty row with
/// d > 0, the block rows ascending minus those that touch it.
///
/// Default proposals that must fail are skipped. Block row r offers faulty
/// row p exactly d(p), and p, holding suitor (w, s), takes it only if
/// (d, r) outranks (w, s), ties going to the higher id. So p's threshold is n
/// when w > d, s + 1 when w = d and 0 otherwise, and r skips p while the
/// threshold exceeds r. Faulty row p offers d(p) as vertex n + k and skips
/// every block row whose suitor it cannot outrank. Both bounds only rise; a
/// bound per chunk of kChunk (the least threshold, the weakest suitor) lets
/// a walk pass a whole chunk.
class RowMatching {
public:
    RowMatching(const BlockImage& block, const CrossbarProfile& xbar)
        : xbar_(xbar),
          n_(block.size()),
          row_words_(block.words()),
          faulty_words_(words_for(xbar.faulty.size())),
          touches_(xbar.faulty.size() * row_words_, 0),
          touched_by_(std::size_t{n_} * faulty_words_, 0),
          head_(num_vertices() + 1, 0),
          next_default_(num_vertices(), 0),
          threshold_(xbar.by_default.size(), 0),
          chunk_threshold_(chunks(xbar.by_default.size()), 0),
          suitor_(n_, kNoSuitor),
          chunk_floor_(chunks(n_), kNoSuitor) {
        // Every touching pair, priced off the images; head_[u + 1] counts
        // u's entries.
        std::vector<Pair> pairs;
        BenefitIds benefits;
        for (std::uint32_t fi = 0; fi < xbar.faulty.size(); ++fi) {
            const std::uint16_t p = xbar.faulty[fi];
            Word* touch = touches_.data() + fi * row_words_;
            for (std::size_t w = 0; w < row_words_; ++w)
                for (Word cols = xbar.image.sa0(p)[w] | xbar.image.sa1(p)[w]; cols != 0;
                     cols &= cols - 1) {
                    const auto c = static_cast<std::uint16_t>(
                        w * kWordBits + static_cast<std::size_t>(std::countr_zero(cols)));
                    for (std::size_t k = 0; k < row_words_; ++k) touch[k] |= block.col(c)[k];
                }
            for (std::size_t w = 0; w < row_words_; ++w)
                for (Word rows = touch[w]; rows != 0; rows &= rows - 1) {
                    const auto r = static_cast<std::uint16_t>(
                        w * kWordBits + static_cast<std::size_t>(std::countr_zero(rows)));
                    set_bit(touched_by_.data() + std::size_t{r} * faulty_words_, fi);
                    const double benefit = xbar.base[p] - xbar.image.cost(block.row(r), p);
                    if (benefit > 0.0) {
                        pairs.push_back({benefits.id(benefit), r, static_cast<std::uint16_t>(fi)});
                        ++head_[r + 1];
                        ++head_[n_ + fi + 1];
                    }
                }
        }
        lay_out(pairs, benefits);
    }

    std::uint32_t num_vertices() const {
        return n_ + static_cast<std::uint32_t>(xbar_.faulty.size());
    }

    /// u's next candidate: the better head of its explicit list and its
    /// default class, past the default entries u touches or must lose.
    bool next(std::uint32_t u, SuitorCandidate& out) {
        SuitorCandidate fallback;
        bool has_default = false;
        std::uint32_t& d = next_default_[u];
        if (u < n_) {
            const std::vector<std::uint32_t>& order = xbar_.by_default;
            const Word* touched = touched_by_.data() + std::size_t{u} * faulty_words_;
            while (d < order.size()) {
                if (d % kChunk == 0 && chunk_threshold_[d / kChunk] > u)
                    d += kChunk;
                else if (threshold_[d] > u || test_bit(touched, order[d]))
                    ++d;
                else
                    break;
            }
            if (d < order.size()) {
                has_default = true;
                fallback = {xbar_.default_benefit[order[d]], n_ + order[d]};
            }
        } else if (const std::uint32_t fi = u - n_; xbar_.default_benefit[fi] > 0.0) {
            const SuitorCandidate mine{xbar_.default_benefit[fi], u};
            const Word* touch = touches_.data() + fi * row_words_;
            while (d < n_) {
                if (d % kChunk == 0 && !outranks(mine, chunk_floor_[d / kChunk]))
                    d += kChunk;
                else if (test_bit(touch, d) || !outranks(mine, suitor_[d]))
                    ++d;
                else
                    break;
            }
            if (d < n_) {
                has_default = true;
                fallback = {mine.w, d};
            }
        }
        const SuitorCandidate* head = explicit_head(u);
        if (head != nullptr && (!has_default || proposes_before(*head, fallback))) {
            out = *head;
            ++head_[u];
            return true;
        }
        if (!has_default) return false;
        out = fallback;
        ++d;
        return true;
    }

    /// Weight of faulty vertex u's first candidate, or 0 when it has none.
    double first_weight(std::uint32_t u) const {
        const SuitorCandidate* head = explicit_head(u);
        return std::max(head != nullptr ? head->w : 0.0, xbar_.default_benefit[u - n_]);
    }

    /// v's suitor is now `suitor` ({weight, proposer}): raise its bound.
    void accepted(std::uint32_t v, const SuitorCandidate& suitor) {
        if (v < n_) {
            suitor_[v] = suitor;
            const std::uint32_t first = v - v % kChunk, last = std::min(first + kChunk, n_);
            SuitorCandidate floor = suitor_[first];
            for (std::uint32_t r = first + 1; r < last; ++r)
                if (outranks(floor, suitor_[r])) floor = suitor_[r];
            chunk_floor_[v / kChunk] = floor;
            return;
        }
        const std::uint32_t fi = v - n_, pos = xbar_.default_pos[fi];
        const auto size = static_cast<std::uint32_t>(threshold_.size());
        if (pos == size) return;
        const double d = xbar_.default_benefit[fi];
        threshold_[pos] = suitor.w > d ? n_ : suitor.w == d ? suitor.v + 1 : 0;
        const std::uint32_t first = pos - pos % kChunk, last = std::min(first + kChunk, size);
        chunk_threshold_[pos / kChunk] =
            *std::min_element(threshold_.begin() + first, threshold_.begin() + last);
    }

private:
    static constexpr std::uint32_t kChunk = 8;

    /// A touching pair with a positive benefit: its benefit's id, block row
    /// r and faulty index fi.
    struct Pair {
        std::uint32_t benefit;
        std::uint16_t r;
        std::uint16_t fi;
    };

    static std::size_t chunks(std::size_t count) { return (count + kChunk - 1) / kChunk; }

    /// Lays out cands_ from `pairs` as the class comment says. On entry
    /// head_[u + 1] holds u's entry count; on exit head_[u] is u's first.
    void lay_out(const std::vector<Pair>& pairs, const BenefitIds& benefits) {
        const std::vector<std::uint32_t> rank = benefits.ranks();
        std::vector<std::size_t> first(rank.size() + 1, 0);
        for (const Pair& e : pairs) ++first[rank[e.benefit] + 1];
        std::partial_sum(first.begin(), first.end(), first.begin());
        std::vector<Pair> by_rank(pairs.size());
        for (const Pair& e : pairs) by_rank[first[rank[e.benefit]]++] = e;

        std::partial_sum(head_.begin(), head_.end(), head_.begin());
        head_.pop_back();
        end_ = head_;
        cands_.resize(2 * pairs.size());
        for (const Pair& e : by_rank) {
            const double w = benefits.value(e.benefit);
            cands_[end_[e.r]++] = {w, n_ + e.fi};
            cands_[end_[n_ + e.fi]++] = {w, e.r};
        }
    }

    /// u's next unread explicit candidate, or nullptr once it has none.
    const SuitorCandidate* explicit_head(std::uint32_t u) const {
        return head_[u] == end_[u] ? nullptr : &cands_[head_[u]];
    }

    const CrossbarProfile& xbar_;
    std::uint32_t n_;
    std::size_t row_words_;
    std::size_t faulty_words_;
    std::vector<Word> touches_;     // per faulty index: block rows touching it
    std::vector<Word> touched_by_;  // per block row: faulty indices it touches
    // Touching pairs with benefit > 0: vertex u's unread explicit
    // candidates are cands_[head_[u], end_[u]).
    std::vector<SuitorCandidate> cands_;
    std::vector<std::size_t> head_;
    std::vector<std::size_t> end_;
    std::vector<std::uint32_t> next_default_;
    std::vector<std::uint32_t> threshold_;        // per by_default position
    std::vector<std::uint32_t> chunk_threshold_;  // least per kChunk positions
    std::vector<SuitorCandidate> suitor_;         // per block row: {w, proposer}
    std::vector<SuitorCandidate> chunk_floor_;    // weakest per kChunk block rows
};

}  // namespace

BlockImage::BlockImage(const BinaryBlock& block)
    : n_(block.size), words_(words_for(n_)), bits_(2 * std::size_t{n_} * words_, 0) {
    for (std::uint16_t r = 0; r < n_; ++r) {
        Word* row = bits_.data() + std::size_t{r} * words_;
        pack_bits(block.bits.data() + std::size_t{r} * n_, n_, 0, row);
        for (std::size_t w = 0; w < words_; ++w)
            for (Word rest = row[w]; rest != 0; rest &= rest - 1) {
                const auto c = w * kWordBits + static_cast<std::size_t>(std::countr_zero(rest));
                set_bit(bits_.data() + (n_ + c) * words_, r);
            }
    }
}

CrossbarImage::CrossbarImage(const FaultMap& map, std::uint16_t n,
                             const RowMatchWeights& weights)
    : words_(words_for(n)), weights_(weights), bits_(2 * std::size_t{map.rows()} * words_, 0) {
    const std::optional<std::uint64_t> w0 = count_weight(weights.sa0);
    const std::optional<std::uint64_t> w1 = count_weight(weights.sa1);
    counted_ = w0 && w1;
    if (counted_) {
        sa0_count_weight_ = *w0;
        sa1_count_weight_ = *w1;
    }
    // Fault cells hold FaultType codes: bit 0 marks SA0 (1), bit 1 SA1 (2).
    const std::size_t cols = std::min<std::size_t>(n, map.cols());
    for (std::uint16_t p = 0; p < map.rows(); ++p) {
        const std::uint8_t* cells = map.row_cells(p).data();
        Word* sa0_bits = bits_.data() + 2 * std::size_t{p} * words_;
        pack_bits(cells, cols, 0, sa0_bits);
        pack_bits(cells, cols, 1, sa0_bits + words_);
    }
}

// Integer weights price a row from its two mismatch counts; any others add
// each mismatch's w0 or w1 in column order, the reference path's per-fault
// running sum. Both give the same double (see the cost definition in
// row_matcher.hpp).
double CrossbarImage::cost(const std::uint64_t* stored, std::uint16_t p) const {
    if (counted_) {
        std::uint64_t sa0_misses = 0, sa1_misses = 0;
        for (std::size_t w = 0; w < words_; ++w) {
            sa0_misses += static_cast<std::uint64_t>(std::popcount(sa0(p)[w] & stored[w]));
            sa1_misses += static_cast<std::uint64_t>(std::popcount(sa1(p)[w] & ~stored[w]));
        }
        return static_cast<double>(sa0_count_weight_ * sa0_misses +
                                   sa1_count_weight_ * sa1_misses);
    }
    double cost = 0.0;
    for (std::size_t w = 0; w < words_; ++w) {
        const Word sa1_cells = sa1(p)[w];
        for (Word miss = (sa0(p)[w] & stored[w]) | (sa1_cells & ~stored[w]); miss != 0;
             miss &= miss - 1)
            cost += ((sa1_cells >> std::countr_zero(miss)) & 1u) != 0 ? weights_.sa1
                                                                      : weights_.sa0;
    }
    return cost;
}

double CrossbarImage::cost(const BlockImage& block,
                           const std::vector<std::uint16_t>& perm) const {
    double total = 0.0;
    for (std::uint16_t r = 0; r < block.size(); ++r) total += cost(block.row(r), perm[r]);
    return total;
}

std::size_t CrossbarImage::sa1_misses(const BlockImage& block,
                                      const std::vector<std::uint16_t>& perm) const {
    std::size_t count = 0;
    for (std::uint16_t r = 0; r < block.size(); ++r)
        for (std::size_t w = 0; w < words_; ++w)
            count += static_cast<std::size_t>(std::popcount(sa1(perm[r])[w] & ~block.row(r)[w]));
    return count;
}

CrossbarProfile::CrossbarProfile(const FaultMap& map, std::uint16_t block_size,
                                 const RowMatchWeights& match_weights)
    : n(block_size), image(map, n, match_weights), base(map.rows(), 0.0) {
    FARE_CHECK(map.rows() >= n, "crossbar has fewer rows than the block");
    // Storing p's own SA0 mask mismatches every fault of p; storing zeros
    // mismatches exactly its SA1 cells, as does every row that does not
    // touch p.
    const std::vector<Word> zeros(words_for(n), 0);
    for (std::uint16_t p = 0; p < map.rows(); ++p) {
        base[p] = image.cost(image.sa0(p), p);
        if (base[p] > 0.0) {
            faulty.push_back(p);
            default_benefit.push_back(base[p] - image.cost(zeros.data(), p));
        }
    }
    const auto& d = default_benefit;
    for (std::uint32_t fi = 0; fi < faulty.size(); ++fi)
        if (d[fi] > 0.0) by_default.push_back(fi);
    std::sort(by_default.begin(), by_default.end(), [&](std::uint32_t a, std::uint32_t b) {
        if (d[a] != d[b]) return d[a] > d[b];
        return a < b;
    });
    default_pos.assign(faulty.size(), static_cast<std::uint32_t>(by_default.size()));
    for (std::uint32_t k = 0; k < by_default.size(); ++k) default_pos[by_default[k]] = k;
    cleanest_first = cleanest_order(base);
}

double mapping_cost(const BinaryBlock& block, const FaultMap& map,
                    const std::vector<std::uint16_t>& perm,
                    const RowMatchWeights& weights) {
    check_perm(block, map, perm);
    return CrossbarImage(map, block.size, weights).cost(BlockImage(block), perm);
}

std::size_t sa1_nonoverlap_count(const BinaryBlock& block, const FaultMap& map,
                                 const std::vector<std::uint16_t>& perm) {
    check_perm(block, map, perm);
    return CrossbarImage(map, block.size).sa1_misses(BlockImage(block), perm);
}

RowMatchResult best_row_permutation(const BinaryBlock& block, const FaultMap& map,
                                    const RowMatchWeights& weights) {
    return best_row_permutation(BlockImage(block), CrossbarProfile(map, block.size, weights));
}

RowMatchResult best_row_permutation(const BlockImage& block, const CrossbarProfile& xbar) {
    const std::uint16_t n = block.size();
    FARE_CHECK(xbar.n == n, "crossbar profile built for another block size");
    RowMatching graph(block, xbar);
    // The loop starts from the back: the faulty rows by their first
    // candidate, strongest first, then the block rows from n - 1 down.
    std::vector<std::pair<double, std::uint32_t>> faulty_first;
    for (std::uint32_t v = n; v < graph.num_vertices(); ++v)
        faulty_first.emplace_back(graph.first_weight(v), v);
    std::sort(faulty_first.begin(), faulty_first.end());
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    for (const auto& [w, v] : faulty_first) order.push_back(v);
    const Matching matching = suitor_match_from(graph.num_vertices(), std::move(order), graph);

    RowMatchResult result;
    result.perm = assemble_perm(n, xbar.cleanest_first, xbar.faulty, matching);
    result.cost = xbar.image.cost(block, result.perm);
    result.sa1_nonoverlap = static_cast<double>(xbar.image.sa1_misses(block, result.perm));
    return result;
}

RowMatchResult best_row_permutation_exact(const BinaryBlock& block,
                                          const FaultMap& map,
                                          const RowMatchWeights& weights) {
    const std::uint16_t n = block.size;
    const std::uint16_t phys = map.rows();
    FARE_CHECK(phys >= n, "crossbar has fewer rows than the block");
    const BlockImage image(block);
    const CrossbarImage xbar(map, n, weights);

    std::vector<double> cost(static_cast<std::size_t>(n) * phys, 0.0);
    for (std::uint16_t r = 0; r < n; ++r)
        for (std::uint16_t p = 0; p < phys; ++p)
            cost[static_cast<std::size_t>(r) * phys + p] = xbar.cost(image.row(r), p);

    const AssignmentResult assignment = hungarian_min_cost(n, phys, cost);
    RowMatchResult result;
    result.perm.assign(n, 0);
    for (std::uint16_t r = 0; r < n; ++r)
        result.perm[r] = static_cast<std::uint16_t>(assignment.row_to_col[r]);
    result.cost = assignment.total_cost;
    result.sa1_nonoverlap = static_cast<double>(xbar.sa1_misses(image, result.perm));
    return result;
}

}  // namespace fare
