// HardwareModel decorator for the traced run: wraps the model make_hardware()
// built and forwards every virtual call to it — version stamps included —
// inside a span named after the layer that does the work. Forwarding keeps
// the trainer's view of the chip unchanged, so a traced cell's results are
// byte-identical to an untraced one (checked per model family by the tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/hardware_model.hpp"

namespace perfbench {

class TracedHardware final : public fare::HardwareModel {
public:
    /// `inner` must outlive the decorator.
    explicit TracedHardware(fare::HardwareModel& inner) : inner_(inner) {}

    void bind_params(const std::vector<fare::Matrix*>& params) override;
    void preprocess(const std::vector<fare::BitMatrix>& batch_adjacency) override;
    void set_batch_partitions(
        const std::vector<std::vector<int>>& batch_node_parts) override;
    fare::Matrix effective_weights(std::size_t idx, const fare::Matrix& w) override;
    fare::BitMatrix effective_adjacency(std::size_t batch_idx,
                                        const fare::BitMatrix& ideal) override;
    void on_step_end(std::size_t epoch, std::size_t step,
                     std::size_t steps_per_epoch) override;
    void on_epoch_end(std::size_t epoch) override;
    std::uint64_t weights_state_version() const override;
    std::uint64_t adjacency_state_version() const override;

    /// Step and epoch hooks seen, and how many of them moved a version stamp
    /// (i.e. forced the trainer to recompute effective state).
    std::size_t hooks() const { return hooks_; }
    std::size_t refreshing_hooks() const { return refreshing_hooks_; }

private:
    /// Both stamps, read without a span (the hook's own span covers it).
    std::uint64_t stamp_sum() const;

    fare::HardwareModel& inner_;
    std::size_t hooks_ = 0;
    std::size_t refreshing_hooks_ = 0;
};

}  // namespace perfbench
