#include "reram/online_tolerance.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "reram/bist.hpp"

namespace fare {

void OnlineToleranceEngine::note_arrivals(
    std::uint64_t step, const std::vector<std::size_t>& touched) {
    for (std::size_t xb : touched) {
        auto it = pending_arrivals_.find(xb);
        // Keep the *earliest* pending arrival: latency is measured from the
        // first damage the next march of this crossbar will discover.
        if (it == pending_arrivals_.end())
            pending_arrivals_.emplace(xb, step);
    }
}

double OnlineToleranceEngine::signature_error(
    const Crossbar& xbar, const CrossbarRepair* repair) const {
    std::uint64_t abs_err = 0;
    const std::size_t cols = xbar.cols();
    xbar.fault_map().for_each_fault(
        [&](std::uint16_t r, std::uint16_t c, FaultType) {
            // Reads of substituted columns are routed to the fault-free
            // spare; known faults are folded into the golden value.
            if (repair != nullptr &&
                (repair->substituted[c] || repair->known[r * cols + c]))
                return;
            const int delta = static_cast<int>(xbar.read(r, c)) -
                              static_cast<int>(xbar.stored(r, c));
            abs_err += static_cast<std::uint64_t>(std::abs(delta));
        });
    const double cells = static_cast<double>(xbar.rows()) *
                         static_cast<double>(xbar.cols());
    return static_cast<double>(abs_err) /
           (static_cast<double>(Crossbar::max_level()) * cells);
}

void OnlineToleranceEngine::repair_crossbar(std::uint64_t step,
                                            Accelerator& accel, std::size_t xb,
                                            OnlineRoundOutcome& outcome) {
    Crossbar& xbar = accel.crossbar(xb);
    // Targeted march: exact detection, but the march writes wear the cells.
    const BistResult scan = bist_scan(xbar);
    outcome.march_cell_ops += scan.cell_ops;

    CrossbarRepair& repair = repairs_[xb];
    const std::size_t cols = xbar.cols();
    if (repair.known.empty()) {
        repair.known.assign(xbar.rows() * cols, false);
        repair.substituted.assign(cols, false);
    }
    std::vector<std::size_t> hard_faults(cols, 0);  // per column
    scan.detected.for_each_fault([&](std::uint16_t r, std::uint16_t c,
                                     FaultType) {
        if (repair.substituted[c]) return;  // already on spare
        const std::size_t cell = r * cols + c;
        if (!repair.known[cell]) {
            repair.known[cell] = true;
            ++stats_.faults_detected;
            outcome.state_changed = true;
        }
        if (xbar.fault_map().is_soft(r, c)) {
            // Targeted re-programming: forming pulses clear the soft
            // stuck-at; the pulses are charged as writes (repair wears).
            xbar.reform(r, c, spec_.reprogram_pulses);
            outcome.repair_pulses += spec_.reprogram_pulses;
            stats_.repair_writes += spec_.reprogram_pulses;
            ++stats_.soft_repaired;
            repair.known[cell] = false;  // a re-fail counts anew
            outcome.state_changed = true;
        } else {
            ++hard_faults[c];
        }
    });

    // Redundant-column substitution: worst hard columns first (count desc,
    // column asc — fully deterministic) while spares remain.
    std::vector<std::pair<std::uint16_t, std::size_t>> order;
    for (std::size_t c = 0; c < cols; ++c)
        if (hard_faults[c] > 0)
            order.emplace_back(static_cast<std::uint16_t>(c), hard_faults[c]);
    std::stable_sort(order.begin(), order.end(),
                     [](const auto& a, const auto& b) {
                         if (a.second != b.second) return a.second > b.second;
                         return a.first < b.first;
                     });
    std::size_t uncovered = 0;
    for (const auto& [col, count] : order) {
        (void)count;
        if (repair.substituted_count < spec_.spare_columns) {
            repair.substituted[col] = true;
            ++repair.substituted_count;
            ++stats_.columns_substituted;
            outcome.state_changed = true;
        } else {
            ++uncovered;
        }
    }
    // Exhaustion = spares used up with hard faults left uncovered: the
    // crossbar degrades to fault-aware remap (residual faults stay in the
    // mitigation view; nothing crashes).
    repair.exhausted = uncovered > 0;

    // Detection-latency sample: this march discovers everything that arrived
    // on this crossbar since its last march.
    auto pending = pending_arrivals_.find(xb);
    if (pending != pending_arrivals_.end()) {
        stats_.latency_steps_sum += step - pending->second;
        ++stats_.latency_samples;
        pending_arrivals_.erase(pending);
    }
}

OnlineRoundOutcome OnlineToleranceEngine::detection_round(
    std::uint64_t step, Accelerator& accel,
    const std::vector<std::size_t>& in_use) {
    OnlineRoundOutcome outcome;
    ++stats_.detection_rounds;
    if (in_use.empty()) return outcome;

    // Rotating partial march window.
    std::set<std::size_t> to_march;
    const std::size_t window = std::min(spec_.march_window, in_use.size());
    for (std::size_t k = 0; k < window; ++k)
        to_march.insert(in_use[(cursor_ + k) % in_use.size()]);
    cursor_ = (cursor_ + window) % in_use.size();

    // Error-bounded readback everywhere else; escalate noisy crossbars.
    for (std::size_t xb : in_use) {
        if (to_march.count(xb) > 0) continue;
        ++outcome.readback_checks;
        ++stats_.readback_checks;
        auto rep = repairs_.find(xb);
        const CrossbarRepair* repair =
            rep == repairs_.end() ? nullptr : &rep->second;
        if (signature_error(accel.crossbar(xb), repair) >
            spec_.readback_tolerance)
            to_march.insert(xb);
    }

    // March + repair in sorted crossbar order (std::set) — deterministic.
    for (std::size_t xb : to_march) repair_crossbar(step, accel, xb, outcome);
    stats_.march_cell_ops += outcome.march_cell_ops;

    std::uint64_t exhausted = 0;
    for (const auto& [xb, repair] : repairs_)
        if (repair.exhausted) ++exhausted;
    stats_.crossbars_exhausted = exhausted;
    return outcome;
}

FaultMap OnlineToleranceEngine::repaired_map(std::size_t crossbar_index,
                                             FaultMap truth) const {
    auto it = repairs_.find(crossbar_index);
    if (it == repairs_.end() || it->second.substituted_count == 0) return truth;
    for (std::size_t c = 0; c < truth.cols(); ++c) {
        if (!it->second.substituted[c]) continue;
        for (std::uint16_t r = 0; r < truth.rows(); ++r)
            truth.clear(r, static_cast<std::uint16_t>(c));
    }
    return truth;
}

bool OnlineToleranceEngine::exhausted(std::size_t crossbar_index) const {
    auto it = repairs_.find(crossbar_index);
    return it != repairs_.end() && it->second.exhausted;
}

std::size_t OnlineToleranceEngine::spares_used(std::size_t crossbar_index) const {
    auto it = repairs_.find(crossbar_index);
    return it == repairs_.end() ? 0 : it->second.substituted_count;
}

}  // namespace fare
