// The one training loop every model family runs on the (possibly faulty)
// simulated crossbars.
//
// TrainLoop owns everything that talks to the HardwareModel: bind and
// preprocess, the effective-weight refresh keyed on the params version and
// the hardware's weights stamp, the step hooks that land wear, fault
// arrival and online repair mid-epoch (arXiv:2412.03089), the epoch hooks,
// parameter export/import for deployment, and the epoch loop itself
// (per-epoch batch shuffle, Adam, the per-epoch curve, the final test
// evaluation and both stopwatches).
//
// A family's trainer is an adapter that supplies only its batch shape:
// its parameters, a fixed set of batches, one batch's
// forward/loss/backward, split evaluation and any preprocessing input
// beyond the weights (the GNN's adjacency stream). A new family writes an
// adapter, never a loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "graph/dataset.hpp"
#include "nn/hardware_model.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/param.hpp"
#include "nn/train_types.hpp"

namespace fare {

class TrainLoop {
public:
    virtual ~TrainLoop() = default;
    TrainLoop(const TrainLoop&) = delete;
    TrainLoop& operator=(const TrainLoop&) = delete;

    /// Run the full training loop and final test evaluation.
    TrainResult run();

    /// Copy-out / copy-in of the model's logical parameters in bind order,
    /// e.g. to deploy a host-trained model onto (different) faulty hardware.
    /// Import rejects a parameter count or shape mismatch.
    std::vector<Matrix> export_params();
    void import_params(const std::vector<Matrix>& params);

    /// Bind + preprocess the attached hardware without training (run() does
    /// this implicitly; needed before evaluate_test_accuracy() on a trainer
    /// that only evaluates).
    void prepare_hardware();

    /// Test accuracy of the current weights on the attached hardware,
    /// without any training.
    double evaluate_test_accuracy();

    /// Fixed training batches, each visited once per epoch in a shuffled
    /// order.
    virtual std::size_t num_batches() const = 0;

protected:
    /// `hardware` may be null => ideal (fault-free) hardware. Not owned.
    /// `epoch_salt` is xor-ed into config.seed to seed the batch shuffle;
    /// each family keeps its own so equal-seed cells stay decorrelated.
    TrainLoop(const TrainConfig& config, HardwareModel* hardware, int num_classes,
              std::uint64_t epoch_salt);

    // ---- Adapter hooks --------------------------------------------------

    /// Every trainable matrix in a stable order (the crossbar bind order).
    virtual std::vector<Param*> params() = 0;

    /// Hand the freshly bound hardware its preprocessing inputs. Default:
    /// no adjacency stream, so the mapper only finishes its weight layout.
    virtual void preprocess(HardwareModel& hardware) { hardware.preprocess({}); }

    /// One training batch with the current effective weights: zero the
    /// grads, forward, and take the loss over the supervised rows. When
    /// there are any (count > 0), also record `metrics` and backward. A
    /// count of 0 skips the optimizer step and the step hook.
    virtual LossResult train_batch(std::size_t batch, MetricAccumulator& metrics) = 0;

    /// Forward every `split` row with the current effective weights into
    /// `metrics`.
    virtual void evaluate(Split split, MetricAccumulator& metrics) = 0;

    HardwareModel* hardware() const { return hardware_; }

    /// Copied into every TrainResult; graph families fill it in their
    /// constructor, others leave it default.
    PartitionQuality partition_quality_;

private:
    /// Recorrupt the effective weights from the logical params. No-op while
    /// neither the params (stamped by every optimizer step / import) nor the
    /// hardware's weights stamp changed since the last refresh, so an
    /// evaluation right after a train step reuses the step's corruption.
    void refresh_effective_weights();
    /// Refresh, then evaluate `split` into a fresh accumulator.
    MetricAccumulator evaluate_split(Split split);

    TrainConfig config_;
    HardwareModel* hardware_;
    int num_classes_;
    std::uint64_t epoch_salt_;

    std::uint64_t params_version_ = 0;  // bumped per optimizer step / import
    /// (params version, hardware weights stamp) at the last refresh.
    std::optional<std::pair<std::uint64_t, std::uint64_t>> refreshed_;
};

/// Makes trainers of one workload over data built once, each on the given
/// hardware (null => ideal). Deployment calls it twice, for the host and
/// the edge trainer, so both share that data.
using TrainerFactory = std::function<std::unique_ptr<TrainLoop>(HardwareModel*)>;

}  // namespace fare
