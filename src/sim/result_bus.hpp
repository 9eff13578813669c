// ResultBus: collects completed cells (from any executor thread) and fans
// them out to the session's sinks in strict plan order. Every sink observes
// begin() at run start, each cell *as soon as the ordered prefix up to it is
// complete* — cell k is delivered once cells 0..k-1 of the run's slice have
// finished, so a long sweep shows rows as they complete — and end() once
// the run finishes.
//
// Slots are positions in the run's report slice (the shard's plan-ordered
// subset); the session maps plan cells onto slots.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "sim/cell.hpp"

namespace fare {

class ResultSink;

class ResultBus {
public:
    /// `slots` = number of cells this run reports. Sinks are borrowed.
    ResultBus(const ExperimentPlan& plan, std::vector<ResultSink*> sinks,
              std::size_t slots);

    /// Announce the run to every sink.
    void begin();

    /// Deliver slot `slot`'s result. Thread-safe; advances the delivered
    /// prefix as far as it now reaches. Each slot must be delivered exactly
    /// once.
    void deliver(std::size_t slot, CellResult cell);

    /// All slots delivered: close every sink and hand back the ordered
    /// results.
    ResultSet finish();

private:
    const ExperimentPlan& plan_;
    std::vector<ResultSink*> sinks_;
    std::vector<CellResult> cells_;
    std::vector<char> ready_;
    std::size_t next_delivered_ = 0;
    std::mutex mutex_;
};

}  // namespace fare
