#include "traced_hardware.hpp"

#include "trace.hpp"

namespace perfbench {

void TracedHardware::bind_params(const std::vector<fare::Matrix*>& params) {
    ScopedSpan span("reram.bind");
    inner_.bind_params(params);
}

void TracedHardware::preprocess(const std::vector<fare::BitMatrix>& batch_adjacency) {
    ScopedSpan span("fare.preprocess");
    inner_.preprocess(batch_adjacency);
}

void TracedHardware::set_batch_partitions(
    const std::vector<std::vector<int>>& batch_node_parts) {
    ScopedSpan span("fare.partition_hint");
    inner_.set_batch_partitions(batch_node_parts);
}

fare::Matrix TracedHardware::effective_weights(std::size_t idx, const fare::Matrix& w) {
    ScopedSpan span("reram.weights");
    return inner_.effective_weights(idx, w);
}

fare::BitMatrix TracedHardware::effective_adjacency(std::size_t batch_idx,
                                                    const fare::BitMatrix& ideal) {
    ScopedSpan span("fare.adjacency");
    return inner_.effective_adjacency(batch_idx, ideal);
}

void TracedHardware::on_step_end(std::size_t epoch, std::size_t step,
                                 std::size_t steps_per_epoch) {
    ScopedSpan span("reram.step_hook");
    const std::uint64_t before = stamp_sum();
    inner_.on_step_end(epoch, step, steps_per_epoch);
    ++hooks_;
    if (stamp_sum() != before) ++refreshing_hooks_;
}

void TracedHardware::on_epoch_end(std::size_t epoch) {
    ScopedSpan span("reram.epoch_hook");
    const std::uint64_t before = stamp_sum();
    inner_.on_epoch_end(epoch);
    ++hooks_;
    if (stamp_sum() != before) ++refreshing_hooks_;
}

std::uint64_t TracedHardware::weights_state_version() const {
    ScopedSpan span("reram.version");
    return inner_.weights_state_version();
}

std::uint64_t TracedHardware::adjacency_state_version() const {
    ScopedSpan span("reram.version");
    return inner_.adjacency_state_version();
}

std::uint64_t TracedHardware::stamp_sum() const {
    // Stamps only ever grow, so the sum moves iff either stamp moved.
    return inner_.weights_state_version() + inner_.adjacency_state_version();
}

}  // namespace perfbench
