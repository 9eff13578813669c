// Online soft-error detection & correction for ReRAM crossbars.
//
// FARe tolerates faults by retraining *around* them; this subsystem instead
// detects and repairs faults *during* training (arXiv:2412.03089's online
// tolerance, plus redundant-mapping ideas from arXiv:2106.09166):
//
//   DetectionPolicy — every `detect_period_batches` training steps, a
//   partial BIST march covers a rotating window of `march_window` in-use
//   crossbars; every other in-use crossbar gets a cheap error-bounded
//   readback check (one MVM signature wave compared against the digital
//   golden value) that escalates to a targeted march when the relative
//   signature error exceeds `readback_tolerance`.
//
//   CorrectionPolicy — cells the march flags are re-programmed with
//   `reprogram_pulses` forming pulses (clears *soft* stuck-ats; each pulse
//   counts as a write, so repair itself causes wear). Columns with surviving
//   hard faults are substituted by per-crossbar spare columns through a
//   logical->physical column map (`spare_columns` per crossbar, assumed
//   fault-free). When spares run out the crossbar is marked exhausted and
//   degrades gracefully to fault-aware remap: the residual faults stay
//   visible to the mapper/overlay instead of crashing the run.
//
// Every decision is a pure function of the engine's inputs (crossbar state,
// step numbers, spec) — no wall-clock, no unordered iteration — so detection
// and repair logs are byte-identical across Inline, Pool and Remote
// executors. Costs are charged through TimingModel (march/readback/reprogram
// latency) and the per-cell write counters (WearModel wear).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "reram/accelerator.hpp"

namespace fare {

/// Knobs of the online detection/correction policy. Stored in
/// HardwareOverrides; participates in cell keys only when enabled so legacy
/// cache keys stay byte-stable.
struct OnlinePolicySpec {
    /// Run a detection round every this many training steps (0 = disabled).
    std::size_t detect_period_batches = 0;
    /// Crossbars marched per round by the rotating partial BIST window.
    std::size_t march_window = 8;
    /// Relative MVM-signature error that escalates a readback check to a
    /// targeted march of that crossbar.
    double readback_tolerance = 0.02;
    /// Spare columns provisioned per crossbar for substitution repair.
    std::size_t spare_columns = 4;
    /// Re-forming program pulses applied per flagged cell.
    std::uint32_t reprogram_pulses = 3;

    bool enabled() const { return detect_period_batches > 0; }
};

/// Cost/effect log of the online engine over one training run. Serialized in
/// CellResult (schema v3); byte-identical across executors for a given spec.
struct OnlineToleranceStats {
    std::uint64_t detection_rounds = 0;
    std::uint64_t march_cell_ops = 0;   ///< BIST cell operations performed
    std::uint64_t readback_checks = 0;  ///< signature checks performed
    std::uint64_t faults_detected = 0;  ///< distinct faulty cells flagged
    std::uint64_t soft_repaired = 0;    ///< soft stuck-ats cleared by re-form
    std::uint64_t repair_writes = 0;    ///< program pulses spent on repair
    std::uint64_t columns_substituted = 0;
    std::uint64_t crossbars_exhausted = 0;  ///< spares used up, degraded to remap
    /// Detection latency: sum/count of (march step - arrival step) over
    /// crossbars whose new faults a round flagged.
    std::uint64_t latency_steps_sum = 0;
    std::uint64_t latency_samples = 0;
    /// Modeled time charged by the hardware model (TimingModel march /
    /// readback / reprogram latencies).
    double detect_seconds = 0.0;
    double repair_seconds = 0.0;

    double mean_detection_latency_steps() const {
        if (latency_samples == 0) return 0.0;
        return static_cast<double>(latency_steps_sum) /
               static_cast<double>(latency_samples);
    }
};

/// What one detection round did — the caller converts the op counts into
/// seconds via TimingModel and refreshes its mitigation state iff
/// `state_changed`.
struct OnlineRoundOutcome {
    std::uint64_t march_cell_ops = 0;
    std::size_t readback_checks = 0;
    std::uint64_t repair_pulses = 0;
    /// A re-form, substitution or newly detected fault changed the effective
    /// fault view.
    bool state_changed = false;
};

class OnlineToleranceEngine {
public:
    OnlineToleranceEngine() = default;
    explicit OnlineToleranceEngine(const OnlinePolicySpec& spec) : spec_(spec) {}

    const OnlinePolicySpec& spec() const { return spec_; }
    const OnlineToleranceStats& stats() const { return stats_; }

    /// Arrival bookkeeping: the crossbars in `touched` received new faults at
    /// global training step `step` (detection-latency denominator).
    void note_arrivals(std::uint64_t step,
                      const std::vector<std::size_t>& touched);

    /// Run one detection round at global step `step` over the in-use
    /// crossbars (deterministic: rotating window + sorted escalations).
    OnlineRoundOutcome detection_round(std::uint64_t step, Accelerator& accel,
                                       const std::vector<std::size_t>& in_use);

    /// Mitigation view of a crossbar: faults on substituted columns are
    /// routed to (assumed fault-free) spare columns and dropped from the map.
    FaultMap repaired_map(std::size_t crossbar_index, FaultMap truth) const;

    bool exhausted(std::size_t crossbar_index) const;
    std::size_t spares_used(std::size_t crossbar_index) const;

    /// Hardware model accumulates modeled seconds into the stats log.
    void charge_seconds(double detect_s, double repair_s) {
        stats_.detect_seconds += detect_s;
        stats_.repair_seconds += repair_s;
    }

private:
    struct CrossbarRepair {
        /// Cells already counted in stats_.faults_detected, one bit per cell
        /// (row-major); a re-form clears its bit so a re-failed cell counts
        /// again.
        std::vector<bool> known;
        /// Logical columns on spares, one bit per column, and their count.
        std::vector<bool> substituted;
        std::size_t substituted_count = 0;
        bool exhausted = false;  ///< hard faults remain but spares are gone
    };

    /// Targeted march + repair of one crossbar.
    void repair_crossbar(std::uint64_t step, Accelerator& accel,
                         std::size_t xb, OnlineRoundOutcome& outcome);

    /// Relative |read - stored| signature error against the fault-adjusted
    /// golden value: substituted columns and already-known faults are
    /// excluded, so only *unknown* damage escalates to a march. Only faulty
    /// cells read differently from what they store, so only they are read.
    double signature_error(const Crossbar& xbar,
                           const CrossbarRepair* repair) const;

    OnlinePolicySpec spec_;
    OnlineToleranceStats stats_;
    std::size_t cursor_ = 0;  ///< rotating march window position
    /// Repair state of every crossbar marched so far.
    std::map<std::size_t, CrossbarRepair> repairs_;
    /// Crossbar -> earliest un-marched arrival step (latency bookkeeping).
    std::map<std::size_t, std::uint64_t> pending_arrivals_;
};

}  // namespace fare
