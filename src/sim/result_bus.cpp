#include "sim/result_bus.hpp"

#include <utility>

#include "common/error.hpp"
#include "sim/result_sink.hpp"

namespace fare {

ResultBus::ResultBus(const ExperimentPlan& plan, std::vector<ResultSink*> sinks,
                     std::size_t slots)
    : plan_(plan), sinks_(std::move(sinks)), cells_(slots), ready_(slots, 0) {}

void ResultBus::begin() {
    for (ResultSink* sink : sinks_) sink->begin(plan_);
}

void ResultBus::deliver(std::size_t slot, CellResult cell) {
    std::lock_guard<std::mutex> lock(mutex_);
    FARE_ASSERT(slot < cells_.size() && !ready_[slot]);
    cells_[slot] = std::move(cell);
    ready_[slot] = 1;
    // Deliver the newly-completed ordered prefix. Sink callbacks run under
    // the bus lock, so sinks never need their own synchronisation.
    while (next_delivered_ < cells_.size() && ready_[next_delivered_]) {
        for (ResultSink* sink : sinks_) sink->cell(cells_[next_delivered_]);
        ++next_delivered_;
    }
}

ResultSet ResultBus::finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    FARE_ASSERT(next_delivered_ == cells_.size());
    for (ResultSink* sink : sinks_) sink->end(plan_);
    ResultSet results;
    results.cells = std::move(cells_);
    return results;
}

}  // namespace fare
