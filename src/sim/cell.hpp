// Cell execution value types: CellResult (the outcome of one executed or
// cache-served cell) with its field table, ResultSet (plan-ordered results
// with coordinate lookup), and run_cell() — the single pure function every
// executor and worker lands on. Split out of sim/session.hpp so the
// scheduler / executor / cache / bus layers can share these types without
// depending on the session façade.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "fare/fare_trainer.hpp"
#include "sim/plan.hpp"

namespace fare {

/// Outcome of one executed (or cache-served) cell.
struct CellResult {
    CellSpec spec;
    SchemeRunResult run;          ///< CellMode::kTrain metrics
    DeploymentResult deployment;  ///< CellMode::kDeploy metrics
    bool from_cache = false;      ///< served from the session memo
    double wall_seconds = 0.0;    ///< execution time (0 when from_cache)
    /// Position of this cell in the plan it was reported from. Stable across
    /// shards: a shard run keeps the *global* plan index, which is what lets
    /// merge_shards() (and `fare-run --merge`) reassemble plan order.
    std::size_t plan_index = 0;

    /// Headline number regardless of mode: test accuracy on the chip.
    double accuracy() const;
};

/// One result field of a CellResult: its record name, the member holding
/// it, the record schema version that introduced it, whether it is measured
/// and the block it sits in.
template <class S, class T, class Of>
struct ResultField {
    const char* name;
    T S::*member;
    int since;
    bool measured;
    FieldBlock<Of> block;

    /// The field inside `result` (const when `result` is).
    auto& of(auto& result) const { return block.of(result).*member; }
};

/// The result fields of a CellResult after its spec, one row per leaf in
/// record order. The record JSON (sim/serialization.hpp) and canonicalized()
/// are driven from here; the display line stays hand-written. A measured
/// row is host time taken around the run, or the cache flag: it differs
/// between two runs of one cell. Every other seconds field
/// (inter_tile_seconds, online detect_seconds and repair_seconds) is chip
/// time modelled by TimingModel, as deterministic as the accuracies.
template <class Visit>
void visit_result_fields(Visit&& visit) {
    using C = CellResult;
    using R = SchemeRunResult;
    using O = OnlineToleranceStats;
    using T = TrainResult;
    using Q = PartitionQuality;
    using D = DeploymentResult;
    constexpr bool measured = true;
    constexpr bool exact = false;
    const FieldBlock cell{{}, [](auto& r) -> auto& { return r; }};
    const FieldBlock run{{"run"}, [](auto& r) -> auto& { return r.run; }};
    const FieldBlock online{{"run", "online"}, [](auto& r) -> auto& { return r.run.online; }};
    const FieldBlock train{{"run", "train"}, [](auto& r) -> auto& { return r.run.train; }};
    const FieldBlock quality{{"run", "train", "partition_quality"},
                             [](auto& r) -> auto& { return r.run.train.partition_quality; }};
    const FieldBlock deployment{{"deployment"}, [](auto& r) -> auto& { return r.deployment; }};
    visit(ResultField{"scheme", &R::scheme, 2, exact, run});
    visit(ResultField{"total_mapping_cost", &R::total_mapping_cost, 2, exact, run});
    visit(ResultField{"bist_scans", &R::bist_scans, 2, exact, run});
    visit(ResultField{"wear_faults", &R::wear_faults, 2, exact, run});
    visit(ResultField{"detection_rounds", &O::detection_rounds, 3, exact, online});
    visit(ResultField{"march_cell_ops", &O::march_cell_ops, 3, exact, online});
    visit(ResultField{"readback_checks", &O::readback_checks, 3, exact, online});
    visit(ResultField{"faults_detected", &O::faults_detected, 3, exact, online});
    visit(ResultField{"soft_repaired", &O::soft_repaired, 3, exact, online});
    visit(ResultField{"repair_writes", &O::repair_writes, 3, exact, online});
    visit(ResultField{"columns_substituted", &O::columns_substituted, 3, exact, online});
    visit(ResultField{"crossbars_exhausted", &O::crossbars_exhausted, 3, exact, online});
    // Latency persists as (sum, samples) raw integers — not the derived
    // mean — so the record round-trips byte-identically.
    visit(ResultField{"latency_steps_sum", &O::latency_steps_sum, 3, exact, online});
    visit(ResultField{"latency_samples", &O::latency_samples, 3, exact, online});
    visit(ResultField{"detect_seconds", &O::detect_seconds, 3, exact, online});
    visit(ResultField{"repair_seconds", &O::repair_seconds, 3, exact, online});
    visit(ResultField{"off_tile_block_fraction", &R::off_tile_block_fraction, 4, exact, run});
    visit(ResultField{"inter_tile_seconds", &R::inter_tile_seconds, 4, exact, run});
    visit(ResultField{"test_accuracy", &T::test_accuracy, 2, exact, train});
    visit(ResultField{"test_macro_f1", &T::test_macro_f1, 2, exact, train});
    visit(ResultField{"preprocess_seconds", &T::preprocess_seconds, 2, measured, train});
    visit(ResultField{"train_seconds", &T::train_seconds, 2, measured, train});
    visit(ResultField{"algo", &Q::algo, 4, exact, quality});
    visit(ResultField{"parts", &Q::parts, 4, exact, quality});
    visit(ResultField{"edge_cut", &Q::edge_cut, 4, exact, quality});
    visit(ResultField{"edge_cut_rate", &Q::edge_cut_rate, 4, exact, quality});
    visit(ResultField{"alpha", &Q::alpha, 4, exact, quality});
    visit(ResultField{"beta", &Q::beta, 4, exact, quality});
    visit(ResultField{"replication_factor", &Q::replication_factor, 4, exact, quality});
    visit(ResultField{"curve", &T::curve, 2, exact, train});
    visit(ResultField{"trained_accuracy", &D::trained_accuracy, 2, exact, deployment});
    visit(ResultField{"deployed_accuracy", &D::deployed_accuracy, 2, exact, deployment});
    visit(ResultField{"from_cache", &C::from_cache, 2, measured, cell});
    visit(ResultField{"wall_seconds", &C::wall_seconds, 2, measured, cell});
    visit(ResultField{"plan_index", &C::plan_index, 2, exact, cell});
}

/// `cell` with every measured row reset to its default: what two runs of
/// one cell share byte for byte (`fare-run --canonical`).
CellResult canonicalized(CellResult cell);

/// Plan-ordered results with coordinate lookup for pivot-table assembly.
class ResultSet {
public:
    std::vector<CellResult> cells;

    /// First cell matching the coordinates; negative density / SA1 match any
    /// and an unset mode matches any mode. Throws InvalidArgument when no
    /// cell matches.
    const CellResult& at(const WorkloadSpec& workload, Scheme scheme,
                         double density = -1.0, double sa1_fraction = -1.0,
                         std::optional<CellMode> mode = std::nullopt) const;
    /// Shorthand for at(...).accuracy().
    double accuracy(const WorkloadSpec& workload, Scheme scheme,
                    double density = -1.0, double sa1_fraction = -1.0,
                    std::optional<CellMode> mode = std::nullopt) const;

    /// Wear-axis lookup: first cell of `scheme` at the given endurance mean
    /// (negative hot_spot_fraction matches any). Wear sweeps vary these two
    /// coordinates where the classic grids vary density/SA1. Throws
    /// InvalidArgument when no cell matches.
    const CellResult& at_wear(Scheme scheme, double endurance_mean_writes,
                              double hot_spot_fraction = -1.0) const;

    std::size_t size() const { return cells.size(); }
    auto begin() const { return cells.begin(); }
    auto end() const { return cells.end(); }
};

/// Execute one cell synchronously, bypassing any session machinery. Every
/// executor and worker lands here. Throws InvalidArgument, before building
/// anything, when a chip field lies outside its range (chip_field_error).
CellResult run_cell(const CellSpec& spec);

}  // namespace fare
