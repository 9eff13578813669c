#include "cell_split.hpp"

#include <memory>
#include <optional>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "fare/fare_trainer.hpp"
#include "models/gnn/trainer.hpp"
#include "models/transformer/seq_dataset.hpp"
#include "models/transformer/transformer_trainer.hpp"
#include "trace.hpp"
#include "traced_hardware.hpp"

namespace perfbench {

namespace {

/// Dataset, hardware injection, trainer construction and run(), in
/// run_cell's order, for one family's trainer type.
template <typename TrainerT, typename DatasetT, typename MakeData, typename Inject>
fare::TrainResult train(const MakeData& make_data, const Inject& inject,
                        const fare::TrainConfig& tc) {
    std::optional<DatasetT> data;
    {
        ScopedSpan span("graph.dataset");
        data.emplace(make_data());
    }
    TracedHardware& hardware = inject();
    std::optional<TrainerT> trainer;
    {
        ScopedSpan span("models.init");
        trainer.emplace(*data, tc, &hardware);
    }
    ScopedSpan span("models.run");
    return trainer->run();
}

}  // namespace

fare::CellResult run_cell_split(const fare::CellSpec& spec, SplitCellStats* stats) {
    if (spec.mode != fare::CellMode::kTrain)
        throw fare::InvalidArgument("traced cells cover train mode only: " + spec.label());
    fare::CellResult result;
    result.spec = spec;
    const fare::Stopwatch watch;
    const fare::TrainConfig tc = spec.train_config();
    const std::uint64_t hw_seed = spec.hardware_seed.value_or(spec.seed);

    // The same hardware run_cell would build: ideal quantised crossbars for
    // the fault-free reference, make_hardware's scheme model otherwise.
    std::unique_ptr<fare::HardwareModel> chip;
    std::optional<TracedHardware> traced;
    const auto inject = [&]() -> TracedHardware& {
        ScopedSpan span("reram.inject");
        if (spec.scheme == fare::Scheme::kFaultFree)
            chip = std::make_unique<fare::IdealQuantizedHardware>();
        else
            chip = fare::make_hardware(spec.scheme,
                                       fare::to_hardware_config(spec.faults, spec.hardware,
                                                                hw_seed, tc.epochs));
        return traced.emplace(*chip);
    };

    fare::SchemeRunResult& run = result.run;
    run.scheme = spec.scheme;
    if (spec.workload.family == "gnn") {
        run.train = train<fare::Trainer, fare::Dataset>(
            [&] { return spec.workload.make_dataset(tc.seed); }, inject, tc);
    } else if (spec.workload.family == "transformer") {
        // TransformerFamily builds its data from the default config.
        run.train = train<fare::TransformerTrainer, fare::SeqDataset>(
            [&] { return fare::make_seq_cls(fare::SeqDatasetConfig{}, tc.seed); },
            inject, tc);
    } else {
        throw fare::InvalidArgument("no traced split for model family '" +
                                    spec.workload.family + "'");
    }
    {
        ScopedSpan span("reram.harvest");
        fare::harvest_scheme_diagnostics(chip.get(), run);
    }
    result.wall_seconds = watch.elapsed_seconds();

    if (stats != nullptr) {
        stats->hooks = traced->hooks();
        stats->refreshing_hooks = traced->refreshing_hooks();
        if (const auto* faulty = dynamic_cast<const fare::FaultyHardware*>(chip.get())) {
            for (const fare::AdjacencyMapping& mapping : faulty->batch_mappings()) {
                stats->blocks_mapped += mapping.assignments.size();
                stats->host_blocks += mapping.host_blocks.size();
            }
        }
    }
    return result;
}

}  // namespace perfbench
