// CellExecutor: the seam between "which cells run" (PlanScheduler) and "how
// they run". PoolExecutor fans cells out over the worker pool, or runs them
// in order on the calling thread at width 1; RemoteExecutor ships them to a
// fleet of worker processes. Each reports every finished cell through a
// completion callback so the ResultBus can stream results as they complete.
// The interface is deliberately narrow: an executor only ships CellSpecs out
// and CellResults back.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/cell.hpp"

namespace fare {

class CellExecutor {
public:
    /// Completion callback: done(job_index, result). May be invoked from
    /// worker threads, concurrently — the callback must be thread-safe.
    using DoneFn = std::function<void(std::size_t, CellResult)>;

    virtual ~CellExecutor();

    /// Execute every spec in `jobs` exactly once; blocks until all complete
    /// (or rethrows the first worker exception after draining).
    virtual void execute(const std::vector<const CellSpec*>& jobs,
                         const DoneFn& done) = 0;

    /// Resolved worker width (1 for inline execution).
    virtual std::size_t width() const = 0;
};

/// Fan-out across the shared persistent worker pool (common/parallel).
/// Workers self-schedule, so completion order is unspecified; every cell is
/// a pure function of its spec, which is what keeps a pool run bit-identical
/// to a serial run of the same jobs. At width 1 the jobs run in order on the
/// calling thread (job 0, 1, 2, ...) and the first throw propagates.
class PoolExecutor final : public CellExecutor {
public:
    /// `threads` as in SessionOptions: 0 = auto (FARE_THREADS env, else
    /// hardware concurrency).
    explicit PoolExecutor(std::size_t threads = 0);

    void execute(const std::vector<const CellSpec*>& jobs,
                 const DoneFn& done) override;
    std::size_t width() const override;

private:
    std::size_t threads_;
};

}  // namespace fare
