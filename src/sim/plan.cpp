#include "sim/plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "nn/model_family.hpp"

namespace fare {

const char* cell_mode_name(CellMode mode) {
    return mode == CellMode::kTrain ? "train" : "deploy";
}

TrainConfig CellSpec::train_config() const {
    TrainConfig tc = workload.train_config(seed);
    tc.record_curve = record_curve;
    if (epochs) tc.epochs = *epochs;
    if (!partitioner.empty()) tc.partitioner = partitioner;
    if (partition_count > 0) {
        // Preserve the workload's per-batch share of the graph: fewer, larger
        // partitions shrink partitions_per_batch proportionally (else a
        // coarse count hands the hardware batches whose adjacency grids
        // overflow the crossbar pool), and a finer count scales it back up.
        if (tc.num_partitions > 0)
            tc.partitions_per_batch = std::max(
                1, tc.partitions_per_batch * partition_count /
                       tc.num_partitions);
        tc.num_partitions = partition_count;
        tc.partitions_per_batch =
            std::min(tc.partitions_per_batch, partition_count);
    }
    return tc;
}

std::string CellSpec::label() const {
    std::ostringstream os;
    os << workload.label() << " / " << scheme_name(scheme);
    if (scheme != Scheme::kFaultFree) {
        os << " / d=" << fmt_pct(faults.density, 0)
           << " sa1=" << fmt_pct(faults.sa1_fraction, 0);
        if (faults.post_total_density > 0.0)
            os << " post=" << fmt_pct(faults.post_total_density, 0);
        if (faults.wear.enabled()) {
            os << " endur=" << faults.wear.endurance_mean_writes;
            if (faults.wear.hot_spot_fraction > 0.0)
                os << " hot=" << fmt_pct(faults.wear.hot_spot_fraction, 0);
        }
        if (scheme_is_online(scheme) && hardware.online.enabled())
            os << " dp=" << hardware.online.detect_period_batches
               << " sc=" << hardware.online.spare_columns;
    }
    if (!partitioner.empty() || partition_count > 0) {
        os << " / part=" << (partitioner.empty() ? "default" : partitioner);
        if (partition_count > 0) os << 'x' << partition_count;
    }
    if (mode == CellMode::kDeploy) os << " / deploy";
    os << " / seed " << seed;
    return os.str();
}

std::string CellSpec::key() const {
    // Ideal hardware ignores the scenario and chip knobs entirely; collapse
    // them so every density row's fault-free entry shares one cached run.
    const bool ideal = scheme == Scheme::kFaultFree;
    // Only the online schemes consult the online policy: normalise it away
    // for everyone else so a sweep over detect periods / spare columns /
    // readback tolerances shares one cached run per non-online scheme.
    HardwareOverrides hw = hardware;
    if (!scheme_is_online(scheme)) hw.online = OnlinePolicySpec{};
    std::ostringstream os;
    // Epochs are recorded post-resolution (the FARE_EPOCHS default included)
    // so a session outliving an env change never serves a stale budget.
    os << "w=" << workload.dataset << '/' << workload.model_name()
       << "|s=" << scheme_name(scheme) << "|m=" << cell_mode_name(mode)
       << "|seed=" << seed << "|curve=" << record_curve
       << "|epochs=" << train_config().epochs
       << "|" << (ideal ? std::string("ideal")
                        : "hwseed=" + std::to_string(hardware_seed.value_or(seed)) +
                              "|" + faults.key() + "|" + hw.key());
    // The partitioning block is appended only when overridden: every legacy
    // key (and every kDerived seed hashed from it) stays byte-stable.
    if (!partitioner.empty() || partition_count > 0)
        os << "|part=" << partitioner << '/' << partition_count;
    // Same convention for the model-family tag: "gnn" (the only family the
    // legacy keys could describe) stays implicit.
    if (workload.family != "gnn") os << "|model=" << workload.family;
    return os.str();
}

std::string field_range_error(const char* field, const FieldRange& range,
                              double value) {
    const bool bounded = !std::isinf(range.lo) || !std::isinf(range.hi);
    const bool above = range.lo_open ? value > range.lo : value >= range.lo;
    const bool below = range.hi_open ? value < range.hi : value <= range.hi;
    if (!bounded || (above && below)) return {};
    return std::string("field '") + field + "': " + fmt_exact(value) +
           " outside " + (range.lo_open ? "(" : "[") + fmt_exact(range.lo) +
           ", " + fmt_exact(range.hi) + (range.hi_open ? ")" : "]");
}

std::string chip_field_error(const CellSpec& cell) {
    std::string error;
    visit_fields([&](const auto& field) {
        if (error.empty()) error = field.error(field.of(cell));
    });
    return error;
}

SweepBuilder::SweepBuilder(std::string name) : name_(std::move(name)) {}

SweepBuilder& SweepBuilder::workload(const WorkloadSpec& w) {
    workloads_.push_back(w);
    return *this;
}
SweepBuilder& SweepBuilder::workloads(const std::vector<WorkloadSpec>& w) {
    workloads_.insert(workloads_.end(), w.begin(), w.end());
    return *this;
}
SweepBuilder& SweepBuilder::model_family(const std::string& name) {
    return model_families({name});
}
SweepBuilder& SweepBuilder::model_families(const std::vector<std::string>& names) {
    for (const std::string& name : names) {
        const auto fam = try_find_model_family(name);
        FARE_CHECK(fam.ok(), "sweep '" + name_ + "': " + fam.error());
        workloads(fam.value()->workloads());
    }
    return *this;
}
SweepBuilder& SweepBuilder::scheme(Scheme s) { return schemes({s}); }
SweepBuilder& SweepBuilder::schemes(const std::vector<Scheme>& s) {
    schemes_ = s;
    return *this;
}
SweepBuilder& SweepBuilder::seed(std::uint64_t s) { return seeds({s}); }
SweepBuilder& SweepBuilder::seeds(const std::vector<std::uint64_t>& s) {
    seeds_ = s;
    return *this;
}
SweepBuilder& SweepBuilder::scenario(const FaultScenario& base) {
    base_.faults = base;
    return *this;
}
SweepBuilder& SweepBuilder::hardware(const HardwareOverrides& hw) {
    base_.hardware = hw;
    return *this;
}
SweepBuilder& SweepBuilder::mode(CellMode m) {
    base_.mode = m;
    return *this;
}
SweepBuilder& SweepBuilder::record_curve(bool on) {
    base_.record_curve = on;
    return *this;
}
SweepBuilder& SweepBuilder::epochs(std::size_t e) {
    base_.epochs = e;
    return *this;
}
SweepBuilder& SweepBuilder::seed_policy(SeedPolicy p) {
    seed_policy_ = p;
    return *this;
}

ExperimentPlan SweepBuilder::build() const {
    FARE_CHECK(!workloads_.empty(), "sweep '" + name_ + "' has no workloads");
    FARE_CHECK(!schemes_.empty(), "sweep '" + name_ + "' has no schemes");
    FARE_CHECK(!seeds_.empty(), "sweep '" + name_ + "' has no seeds");
    // Axis values were checked as they were set; the template stands in for
    // every unset axis.
    const std::string error = chip_field_error(base_);
    FARE_CHECK(error.empty(), "sweep '" + name_ + "': " + error);

    ExperimentPlan plan;
    plan.name = name_;
    // Index-odometer enumeration over workload, the chip-field axes (unset
    // ones have length 1), scheme and seed, keeping the documented
    // workload-major order (rightmost axis spins fastest).
    std::vector<std::size_t> extents{workloads_.size()};
    for (const Axis& axis : axes_) extents.push_back(axis.size);
    extents.push_back(schemes_.size());
    extents.push_back(seeds_.size());
    std::vector<std::size_t> index(extents.size(), 0);
    const std::size_t scheme_axis = extents.size() - 2;
    const std::size_t seed_axis = extents.size() - 1;
    std::size_t cells = 1;
    for (const std::size_t extent : extents) cells *= extent;
    plan.cells.reserve(cells);
    for (std::size_t produced = 0; produced < cells; ++produced) {
        CellSpec cell = base_;
        cell.workload = workloads_[index[0]];
        for (std::size_t a = 0; a < axes_.size(); ++a)
            if (axes_[a].set) axes_[a].set(cell, index[1 + a]);
        if (cell.faults.post_sa1_follows_pre)
            cell.faults.post_sa1_fraction = cell.faults.sa1_fraction;
        cell.scheme = schemes_[index[scheme_axis]];
        cell.seed = seeds_[index[seed_axis]];
        if (seed_policy_ == SeedPolicy::kDerived) {
            CellSpec coords = cell;  // key() sans seed
            coords.seed = 0;
            // FNV-1a of the key is a stable basis; SplitMix64 decorrelates
            // seeds that differ in few bits.
            cell.seed = splitmix64(seeds_[index[seed_axis]] ^ fnv1a(coords.key()));
        }
        plan.cells.push_back(std::move(cell));
        for (std::size_t axis = extents.size(); axis-- > 0;) {
            if (++index[axis] < extents[axis]) break;
            index[axis] = 0;
        }
    }
    return plan;
}

}  // namespace fare
