// SimSession: the user-facing façade over the execution stack —
//
//   PlanScheduler  (sim/scheduler.hpp)  canonical keys, dedup, shard slices
//   CellExecutor   (sim/executor.hpp)   inline or worker-pool execution
//   CellCache      (sim/cell_cache.hpp) in-memory memo or on-disk resume
//   ResultBus      (sim/result_bus.hpp) ordered-prefix sink delivery
//
// A session wires the four together from SessionOptions (or injected
// implementations), so benches keep the one-liner API while sweeps gain
// sharding (run slice i of N, merge with merge_shards / `fare-run --merge`),
// crash-resume via a persistent cache directory, and sinks that report cells
// as they finish.
//
// Guarantees:
//   * results are returned (and reported to sinks) in plan order, regardless
//     of which worker finished which cell first; sinks see each cell as the
//     completed prefix grows;
//   * every cell is a pure function of its CellSpec, so a parallel run is
//     bit-identical to a serial run, and an N-shard run merges bit-identical
//     to a single-session run of the same plan;
//   * cells with equal canonical keys execute once — e.g. the fault-free
//     reference listed in every density row, or a plan re-run in the same
//     session (the cache persists across run() calls, and across *processes*
//     when cache_dir is set).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/cell.hpp"
#include "sim/plan.hpp"
#include "sim/scheduler.hpp"

namespace fare {

class CellCache;
class CellExecutor;
class ResultSink;

struct SessionOptions {
    /// Worker threads; 0 = auto (FARE_THREADS env, else hardware
    /// concurrency). 1 forces serial execution.
    std::size_t threads = 0;
    /// If set, one progress dot is printed per executed cell.
    std::ostream* progress = nullptr;
    /// Run only this slice of the plan's unique cells (default: all of it).
    /// Shard partitioning is deterministic, so N processes each running one
    /// shard jointly cover the plan exactly once.
    ShardSpec shard{};
    /// Non-empty: persist executed cells under this directory
    /// (DiskCellCache) so interrupted sweeps resume and later runs reuse
    /// unchanged cells. Concurrent shard processes may share one directory
    /// (per-process segment files + an advisory lock keep it consistent).
    /// Empty: in-memory memo only.
    std::string cache_dir;
    /// Size policy for the disk cache: at compaction, least-recently-used
    /// entries are evicted until the live records fit in this many bytes.
    /// 0 = unbounded. Ignored without cache_dir.
    std::uint64_t cache_max_bytes = 0;
};

class SimSession {
public:
    explicit SimSession(SessionOptions options = {});
    /// Dependency-injecting constructor: bring your own executor and/or
    /// cache (null falls back to what `options` implies).
    SimSession(SessionOptions options, std::unique_ptr<CellExecutor> executor,
               std::unique_ptr<CellCache> cache);
    ~SimSession();

    SimSession(const SimSession&) = delete;
    SimSession& operator=(const SimSession&) = delete;

    /// Attach a sink; the session owns it. Sinks observe every subsequent
    /// run() in plan order, each cell as the completed prefix grows (see
    /// sim/result_bus.hpp). Returns a reference to the attached sink.
    ResultSink& add_sink(std::unique_ptr<ResultSink> sink);

    /// Execute the plan (this session's shard of it): unique cell keys fan
    /// out across the executor, duplicates and cache hits are served without
    /// re-execution. The ResultSet holds the shard's cells in plan order,
    /// each stamped with its global plan_index.
    ResultSet run(const ExperimentPlan& plan);

    /// Resolved worker count used by run().
    std::size_t threads() const;

    /// Cumulative cells served from cache across all run() calls.
    std::size_t cache_hits() const { return cache_hits_; }
    /// Distinct cell keys held by the cache.
    std::size_t cache_entries() const;

    CellCache& cache() { return *cache_; }
    CellExecutor& executor() { return *executor_; }

private:
    SessionOptions options_;
    std::unique_ptr<CellExecutor> executor_;
    std::unique_ptr<CellCache> cache_;
    std::vector<std::unique_ptr<ResultSink>> sinks_;
    std::size_t cache_hits_ = 0;
};

}  // namespace fare
