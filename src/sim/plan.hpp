// Declarative experiment description: a CellSpec is one simulation cell of
// the paper's evaluation grid (workload x scheme x fault scenario x chip x
// seed), an ExperimentPlan is an ordered list of cells, and SweepBuilder
// cross-products axis lists into a plan — replacing the hand-rolled nested
// loops the benches used to carry. Execution lives in sim/session.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "fare/scenario.hpp"
#include "graph/partitioner.hpp"
#include "sim/registry.hpp"

namespace fare {

/// What the cell measures.
enum class CellMode {
    kTrain,   ///< train on the (possibly faulty) chip — Figs. 4-6
    kDeploy,  ///< train on ideal hardware, evaluate on the faulty chip (E4)
};
const char* cell_mode_name(CellMode mode);

/// How SweepBuilder assigns per-cell seeds.
enum class SeedPolicy {
    /// Every cell uses the base seed verbatim (the paper's figures: one
    /// common seed so all cells share the same dataset instance).
    kShared,
    /// Per-cell seed derived by hashing the base seed with the cell's
    /// coordinates — decorrelated streams that are stable under plan
    /// reordering and identical between serial and parallel execution.
    kDerived,
};

/// One cell of the evaluation grid. A CellSpec is a pure value: running the
/// same spec twice (on any thread) produces bit-identical results, which is
/// what makes parallel execution and memoization safe.
struct CellSpec {
    WorkloadSpec workload;
    Scheme scheme = Scheme::kFaultFree;
    FaultScenario faults;
    HardwareOverrides hardware;
    std::uint64_t seed = 1;
    /// Seed for the chip's fault injection when it should differ from the
    /// dataset/training seed — e.g. re-drawing fault maps across wear stages
    /// while training on the same graph. Unset: follows `seed`.
    std::optional<std::uint64_t> hardware_seed;
    CellMode mode = CellMode::kTrain;
    bool record_curve = false;
    /// Override the registry's epoch count (FARE_EPOCHS default) if set.
    std::optional<std::size_t> epochs;
    /// Partitioning algorithm override by registry name (graph/partitioner.hpp);
    /// "" = the workload default ("multilevel"). Appended to key() only when
    /// non-default so legacy memo keys stay byte-stable.
    std::string partitioner;
    /// Cluster-partition count override; 0 = the workload default. When set,
    /// partitions_per_batch is clamped to it. Key-inert while 0.
    int partition_count = 0;

    /// Training configuration implied by the spec (registry defaults plus
    /// the record_curve / epochs overrides).
    TrainConfig train_config() const;

    /// Human-readable cell coordinates, e.g.
    /// "Reddit (GCN) / FARe / d=3% sa1=50% / seed 1".
    std::string label() const;

    /// Canonical memoization key: two specs with equal keys produce
    /// bit-identical results. Fault-free cells normalise the scenario and
    /// chip knobs away (ideal hardware ignores both), so the fault-free
    /// reference is computed once per workload and shared across every
    /// density row that lists Scheme::kFaultFree.
    std::string key() const;
};

/// An ordered list of cells, executed (and reported) in plan order.
struct ExperimentPlan {
    std::string name;  ///< used for sink file names, e.g. BENCH_<name>.json
    std::vector<CellSpec> cells;

    std::size_t size() const { return cells.size(); }
    bool empty() const { return cells.empty(); }
};

/// Valid values of a chip field: a number lies in [lo, hi], either end
/// open; a string must name a registered partitioner ("" = the workload
/// default).
struct FieldRange {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool lo_open = false;
    bool hi_open = false;
};

/// Why `value` lies outside `field`'s range ("" when it does not).
std::string field_range_error(const char* field, const FieldRange& range,
                              double value);

/// Where a struct of fields sits: its object path in the record, outermost
/// first and ended by the first null (all null = the object the table
/// describes), and how to reach it from that object.
template <class Of>
struct FieldBlock {
    const char* path[3];
    Of of;
};

/// One chip field of a CellSpec: its record name, the member holding it,
/// the record schema version that introduced it, its valid values and the
/// block it sits in.
template <class S, class T, class Of>
struct CellField {
    const char* name;
    T S::*member;
    int since;
    FieldRange range;
    FieldBlock<Of> block;

    /// The field inside `cell` (const when `cell` is).
    auto& of(auto& cell) const { return block.of(cell).*member; }
    /// Why `value` is not valid for this field ("" when it is).
    std::string error(const T& value) const {
        if constexpr (std::is_same_v<T, std::string>) {
            const auto found = try_find_partitioner(value);
            return value.empty() || found.ok()
                       ? std::string()
                       : std::string("field '") + name + "': " + found.error();
        } else {
            return field_range_error(name, range, static_cast<double>(value));
        }
    }
};

/// The chip fields of a CellSpec, one row per leaf in record order. The
/// record JSON (sim/serialization.hpp) and SweepBuilder::axis are driven
/// from here; CellSpec::key() and the display line stay hand-written.
template <class Visit>
void visit_fields(Visit&& visit) {
    using F = FaultScenario;
    using W = WearSpec;
    using H = HardwareOverrides;
    using M = RowMatchWeights;
    using O = OnlinePolicySpec;
    constexpr FieldRange any{};
    constexpr FieldRange unit{.lo = 0.0, .hi = 1.0};
    constexpr FieldRange non_negative{.lo = 0.0};
    constexpr FieldRange positive{.lo = 0.0, .lo_open = true};
    constexpr FieldRange at_least_one{.lo = 1.0};
    constexpr FieldRange below_one{.lo = 0.0, .hi = 1.0, .hi_open = true};
    const FieldBlock spec{{}, [](auto& c) -> auto& { return c; }};
    const FieldBlock faults{{"faults"}, [](auto& c) -> auto& { return c.faults; }};
    const FieldBlock wear{{"faults", "wear"}, [](auto& c) -> auto& { return c.faults.wear; }};
    const FieldBlock hw{{"hardware"}, [](auto& c) -> auto& { return c.hardware; }};
    const FieldBlock match{{"hardware"},
                           [](auto& c) -> auto& { return c.hardware.match_weights; }};
    const FieldBlock online{{"hardware", "online"},
                            [](auto& c) -> auto& { return c.hardware.online; }};
    visit(CellField{"partitioner", &CellSpec::partitioner, 4, any, spec});
    visit(CellField{"partition_count", &CellSpec::partition_count, 4, non_negative, spec});
    visit(CellField{"density", &F::density, 2, unit, faults});
    visit(CellField{"sa1_fraction", &F::sa1_fraction, 2, unit, faults});
    visit(CellField{"cluster_shape", &F::cluster_shape, 2, any, faults});
    visit(CellField{"post_total_density", &F::post_total_density, 2, unit, faults});
    visit(CellField{"post_epochs", &F::post_epochs, 2, any, faults});
    visit(CellField{"post_sa1_fraction", &F::post_sa1_fraction, 2, unit, faults});
    visit(CellField{"post_sa1_follows_pre", &F::post_sa1_follows_pre, 2, any, faults});
    visit(CellField{"faults_on_weights", &F::faults_on_weights, 2, any, faults});
    visit(CellField{"faults_on_adjacency", &F::faults_on_adjacency, 2, any, faults});
    visit(CellField{"read_noise_sigma", &F::read_noise_sigma, 2, non_negative, faults});
    visit(CellField{"soft_error_rate", &F::soft_error_rate, 3, unit, faults});
    visit(CellField{"endurance_mean_writes", &W::endurance_mean_writes, 2, non_negative, wear});
    visit(CellField{"weibull_shape", &W::weibull_shape, 2, positive, wear});
    visit(CellField{"hot_spot_fraction", &W::hot_spot_fraction, 2, unit, wear});
    visit(CellField{"hot_spot_severity", &W::hot_spot_severity, 2, at_least_one, wear});
    visit(CellField{"writes_per_step", &W::writes_per_step, 2, at_least_one, wear});
    visit(CellField{"arrival_period_batches", &F::arrival_period_batches, 2, any, faults});
    visit(CellField{"num_tiles", &H::num_tiles, 2, any, hw});
    visit(CellField{"clip_threshold", &H::clip_threshold, 2, positive, hw});
    visit(CellField{"match_sa0", &M::sa0, 2, any, match});
    visit(CellField{"match_sa1", &M::sa1, 2, any, match});
    visit(CellField{"spare_column_fraction", &H::spare_column_fraction, 2, any, hw});
    visit(CellField{"max_adjacency_pool", &H::max_adjacency_pool, 2, any, hw});
    visit(CellField{"prune_fraction", &H::prune_fraction, 5, below_one, hw});
    visit(CellField{"detect_period_batches", &O::detect_period_batches, 3, any, online});
    visit(CellField{"march_window", &O::march_window, 3, any, online});
    visit(CellField{"readback_tolerance", &O::readback_tolerance, 3, non_negative, online});
    visit(CellField{"spare_columns", &O::spare_columns, 3, any, online});
    visit(CellField{"reprogram_pulses", &O::reprogram_pulses, 3, any, online});
    visit(CellField{"partition_aware_mapping", &H::partition_aware_mapping, 4, any, hw});
}

/// Why a chip field of `cell` lies outside its range ("" when none does).
std::string chip_field_error(const CellSpec& cell);

/// Cross-product builder over the evaluation axes. Unset axes default to a
/// single element taken from the scenario / hardware templates, so a builder
/// with only a workload and a scheme yields exactly one cell.
///
/// Enumeration order is deterministic: workload-major, then the chip-field
/// axes in record order (visit_fields), then scheme, then seed — the
/// row/column order the paper's tables use.
class SweepBuilder {
public:
    explicit SweepBuilder(std::string name);

    SweepBuilder& workload(const WorkloadSpec& w);
    SweepBuilder& workloads(const std::vector<WorkloadSpec>& w);
    /// Model-family axes: append every workload registered by the named
    /// family (nn/model_family.hpp), so `.model_families({"gnn",
    /// "transformer"})` sweeps the union of both families' workloads.
    /// Unknown names fail immediately, listing the registered families.
    SweepBuilder& model_family(const std::string& name);
    SweepBuilder& model_families(const std::vector<std::string>& names);
    SweepBuilder& scheme(Scheme s);
    SweepBuilder& schemes(const std::vector<Scheme>& s);
    /// Sweep one chip field over `values`, e.g.
    /// `.axis(&FaultScenario::read_noise_sigma, {0.0, 0.02})` or
    /// `.axis(&WearSpec::endurance_mean_writes, {4e4, 8e4})`. Values are
    /// range-checked here; setting an axis again replaces it.
    template <class S, class T>
    SweepBuilder& axis(T S::*member, std::type_identity_t<std::vector<T>> values);
    /// Shorthands for the most common axes.
    SweepBuilder& density(double d) { return axis(&FaultScenario::density, {d}); }
    SweepBuilder& sa1_fraction(double f) { return axis(&FaultScenario::sa1_fraction, {f}); }
    SweepBuilder& prune_fractions(const std::vector<double>& f) {
        return axis(&HardwareOverrides::prune_fraction, f);
    }
    SweepBuilder& seed(std::uint64_t s);
    SweepBuilder& seeds(const std::vector<std::uint64_t>& s);

    /// Scenario template: chip-field axes overwrite its fields per cell;
    /// everything else is copied through. While a cell's
    /// post_sa1_follows_pre is set (the default), its post_sa1_fraction
    /// follows its sa1_fraction.
    SweepBuilder& scenario(const FaultScenario& base);
    SweepBuilder& hardware(const HardwareOverrides& hw);
    SweepBuilder& mode(CellMode m);
    SweepBuilder& record_curve(bool on);
    SweepBuilder& epochs(std::size_t e);
    SweepBuilder& seed_policy(SeedPolicy p);

    ExperimentPlan build() const;

private:
    /// One chip-field axis: its length and a setter writing value i into a
    /// cell (none while the axis is unset).
    struct Axis {
        std::size_t size = 1;
        std::function<void(CellSpec&, std::size_t)> set;
    };

    std::string name_;
    std::vector<WorkloadSpec> workloads_;
    std::vector<Scheme> schemes_{Scheme::kFaultFree};
    std::vector<Axis> axes_;  ///< indexed by visit_fields row
    std::vector<std::uint64_t> seeds_{1};
    CellSpec base_;  ///< template: scenario, hardware, mode, curve, epochs
    SeedPolicy seed_policy_ = SeedPolicy::kShared;
};

template <class S, class T>
SweepBuilder& SweepBuilder::axis(T S::*member,
                                 std::type_identity_t<std::vector<T>> values) {
    bool found = false;
    std::size_t row = 0;
    visit_fields([&](const auto& field) {
        if constexpr (std::is_same_v<decltype(field.member), T S::*>) {
            if (field.member == member) {
                for (const T& value : values) {
                    const std::string error = field.error(value);
                    FARE_CHECK(error.empty(), "sweep '" + name_ + "': " + error);
                }
                if (axes_.size() <= row) axes_.resize(row + 1);
                axes_[row] = {values.size(), [field, values](CellSpec& cell, std::size_t i) {
                                  field.of(cell) = values[i];
                              }};
                found = true;
            }
        }
        ++row;
    });
    FARE_CHECK(found, "sweep '" + name_ + "': axis member is not a chip field");
    return *this;
}

}  // namespace fare
