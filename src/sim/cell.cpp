#include "sim/cell.hpp"

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "fare/fare_trainer.hpp"
#include "nn/model_family.hpp"

namespace fare {

double CellResult::accuracy() const {
    return spec.mode == CellMode::kDeploy ? deployment.deployed_accuracy
                                          : run.train.test_accuracy;
}

CellResult canonicalized(CellResult cell) {
    static const CellResult defaults;
    visit_result_fields([&](const auto& field) {
        if (field.measured) field.of(cell) = field.of(defaults);
    });
    return cell;
}

const CellResult& ResultSet::at(const WorkloadSpec& workload, Scheme scheme,
                                double density, double sa1_fraction,
                                std::optional<CellMode> mode) const {
    for (const CellResult& cell : cells) {
        if (cell.spec.workload.dataset != workload.dataset ||
            cell.spec.workload.family != workload.family ||
            cell.spec.workload.model_name() != workload.model_name())
            continue;
        if (cell.spec.scheme != scheme) continue;
        if (density >= 0.0 && cell.spec.faults.density != density) continue;
        if (sa1_fraction >= 0.0 && cell.spec.faults.sa1_fraction != sa1_fraction)
            continue;
        if (mode && cell.spec.mode != *mode) continue;
        return cell;
    }
    throw InvalidArgument("no cell for " + workload.label() + " / " +
                          scheme_name(scheme));
}

double ResultSet::accuracy(const WorkloadSpec& workload, Scheme scheme,
                           double density, double sa1_fraction,
                           std::optional<CellMode> mode) const {
    return at(workload, scheme, density, sa1_fraction, mode).accuracy();
}

const CellResult& ResultSet::at_wear(Scheme scheme,
                                     double endurance_mean_writes,
                                     double hot_spot_fraction) const {
    for (const CellResult& cell : cells) {
        if (cell.spec.scheme != scheme) continue;
        if (cell.spec.faults.wear.endurance_mean_writes != endurance_mean_writes)
            continue;
        if (hot_spot_fraction >= 0.0 &&
            cell.spec.faults.wear.hot_spot_fraction != hot_spot_fraction)
            continue;
        return cell;
    }
    throw InvalidArgument("no wear cell for " + std::string(scheme_name(scheme)));
}

CellResult run_cell(const CellSpec& spec) {
    // A spec decoded from the wire or a hand-built one reaches here with
    // its chip fields unchecked; an out-of-range field (a prune fraction
    // above 1, say) would index past the model's buffers.
    if (const std::string error = chip_field_error(spec); !error.empty())
        throw InvalidArgument(error);
    CellResult result;
    result.spec = spec;
    Stopwatch watch;
    // Model-agnostic dispatch: the workload's family builds the data and
    // its trainers; the cell machinery only handles seeding, caching and
    // serialization.
    const ModelFamily& family = find_model_family(spec.workload.family);
    const TrainConfig tc = spec.train_config();
    const std::uint64_t hw_seed = spec.hardware_seed.value_or(spec.seed);
    const TrainerFactory trainers = family.make_trainers(spec.workload, tc);
    if (spec.mode == CellMode::kDeploy) {
        result.deployment = run_deployment(trainers, spec.scheme, tc, spec.faults,
                                           spec.hardware, hw_seed);
    } else {
        result.run = run_scheme(trainers, spec.scheme, tc, spec.faults, spec.hardware,
                                hw_seed);
    }
    result.wall_seconds = watch.elapsed_ms() / 1e3;
    return result;
}

}  // namespace fare
