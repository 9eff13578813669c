#include "nn/train_loop.hpp"

#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "nn/optimizer.hpp"

namespace fare {

TrainLoop::TrainLoop(const TrainConfig& config, HardwareModel* hardware,
                     int num_classes, std::uint64_t epoch_salt)
    : config_(config),
      hardware_(hardware),
      num_classes_(num_classes),
      epoch_salt_(epoch_salt) {
    FARE_CHECK(config.epochs >= 1, "need at least one epoch");
}

void TrainLoop::refresh_effective_weights() {
    const std::pair<std::uint64_t, std::uint64_t> stamps{
        params_version_, hardware_ != nullptr ? hardware_->weights_state_version() : 0};
    if (refreshed_ == stamps) return;  // nothing changed since the last pass

    const auto ps = params();
    for (std::size_t i = 0; i < ps.size(); ++i)
        ps[i]->effective = hardware_ != nullptr
                               ? hardware_->effective_weights(i, ps[i]->value)
                               : ps[i]->value;
    refreshed_ = stamps;
}

MetricAccumulator TrainLoop::evaluate_split(Split split) {
    refresh_effective_weights();
    MetricAccumulator metrics(num_classes_);
    evaluate(split, metrics);
    return metrics;
}

std::vector<Matrix> TrainLoop::export_params() {
    std::vector<Matrix> out;
    for (const Param* p : params()) out.push_back(p->value);
    return out;
}

void TrainLoop::import_params(const std::vector<Matrix>& params_in) {
    const auto dst = params();
    FARE_CHECK(params_in.size() == dst.size(), "parameter count mismatch on import");
    for (std::size_t i = 0; i < params_in.size(); ++i) {
        Matrix& value = dst[i]->value;
        FARE_CHECK(params_in[i].rows() == value.rows() &&
                       params_in[i].cols() == value.cols(),
                   "parameter shape mismatch on import");
        value = params_in[i];
    }
    ++params_version_;
}

void TrainLoop::prepare_hardware() {
    if (hardware_ == nullptr) return;
    std::vector<Matrix*> values;
    for (Param* p : params()) values.push_back(&p->value);
    hardware_->bind_params(values);
    preprocess(*hardware_);
}

double TrainLoop::evaluate_test_accuracy() {
    return evaluate_split(Split::kTest).accuracy();
}

TrainResult TrainLoop::run() {
    TrainResult result;
    result.partition_quality = partition_quality_;
    Stopwatch prep_watch;
    prepare_hardware();
    result.preprocess_seconds = prep_watch.elapsed_seconds();

    Adam optimizer(config_.lr);
    Rng epoch_rng(config_.seed ^ epoch_salt_);
    Stopwatch train_watch;

    std::vector<std::size_t> order(num_batches());
    std::iota(order.begin(), order.end(), 0u);

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        epoch_rng.shuffle(order);
        float loss_sum = 0.0f;
        std::size_t loss_batches = 0;
        MetricAccumulator train_metrics(num_classes_);

        for (std::size_t step = 0; step < order.size(); ++step) {
            refresh_effective_weights();
            const LossResult loss = train_batch(order[step], train_metrics);
            if (loss.count == 0) continue;
            optimizer.step(params());
            ++params_version_;
            // Step hook: write-endurance accounting and mid-epoch fault
            // arrival. A hardware model that changes fault state here bumps
            // its version stamps, so the next refresh (and any adapter cache
            // keyed on the adjacency stamp) recomputes exactly then.
            if (hardware_ != nullptr) hardware_->on_step_end(epoch, step, order.size());
            loss_sum += loss.loss;
            ++loss_batches;
        }

        if (hardware_ != nullptr) hardware_->on_epoch_end(epoch);

        if (config_.record_curve) {
            EpochStats stats;
            stats.train_loss =
                loss_batches ? loss_sum / static_cast<float>(loss_batches) : 0.0f;
            stats.train_accuracy = train_metrics.accuracy();
            stats.val_accuracy = evaluate_split(Split::kVal).accuracy();
            result.curve.push_back(stats);
        }
    }

    const MetricAccumulator test = evaluate_split(Split::kTest);
    result.test_accuracy = test.accuracy();
    result.test_macro_f1 = test.macro_f1();
    result.train_seconds = train_watch.elapsed_seconds();
    return result;
}

}  // namespace fare
