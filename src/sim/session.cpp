#include "sim/session.hpp"

#include <mutex>
#include <optional>
#include <ostream>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "sim/cell_cache.hpp"
#include "sim/executor.hpp"
#include "sim/result_bus.hpp"
#include "sim/result_sink.hpp"

namespace fare {

SimSession::SimSession(SessionOptions options)
    : SimSession(options, nullptr, nullptr) {}

SimSession::SimSession(SessionOptions options,
                       std::unique_ptr<CellExecutor> executor,
                       std::unique_ptr<CellCache> cache)
    : options_(options),
      executor_(executor ? std::move(executor)
                         : std::make_unique<PoolExecutor>(options.threads)),
      cache_(cache ? std::move(cache)
                   : make_cell_cache(options.cache_dir,
                                     options.cache_max_bytes)) {
    // Resolve FARE_SIMD now so a malformed value fails fast here instead of
    // deep inside the first kernel call. Reading leaves any SimdIsaScope pin
    // in place.
    simd::active_isa();
}

SimSession::~SimSession() = default;

ResultSink& SimSession::add_sink(std::unique_ptr<ResultSink> sink) {
    FARE_CHECK(sink != nullptr, "null ResultSink");
    sinks_.push_back(std::move(sink));
    return *sinks_.back();
}

std::size_t SimSession::threads() const { return executor_->width(); }

std::size_t SimSession::cache_entries() const { return cache_->size(); }

ResultSet SimSession::run(const ExperimentPlan& plan) {
    const PlanScheduler scheduler(options_.shard);
    const ScheduledPlan sched = scheduler.schedule(plan);

    // Report slot per owned plan cell, and owned plan cells per job
    // (ascending, so the first entry is the job's fresh occurrence).
    std::unordered_map<std::size_t, std::size_t> slot_of_cell;
    slot_of_cell.reserve(sched.owned_cells.size());
    for (std::size_t slot = 0; slot < sched.owned_cells.size(); ++slot)
        slot_of_cell.emplace(sched.owned_cells[slot], slot);
    std::unordered_map<std::size_t, std::vector<std::size_t>> cells_of_job;
    for (const std::size_t i : sched.owned_cells)
        cells_of_job[sched.job_of_cell[i]].push_back(i);

    std::vector<ResultSink*> sinks;
    sinks.reserve(sinks_.size());
    for (const auto& sink : sinks_) sinks.push_back(sink.get());
    ResultBus bus(plan, std::move(sinks), sched.owned_cells.size());
    bus.begin();

    // Fan one job's outcome out to every owned plan cell listing its key.
    // A cell is reported from_cache unless it is the first occurrence of a
    // job executed in this run; its spec keeps the requested coordinates
    // (the cached run is behaviourally identical by construction of key()).
    const auto deliver_job = [&](std::size_t job, const CellResult& result,
                                 bool executed_here) {
        const std::vector<std::size_t>& cells = cells_of_job.at(job);
        for (std::size_t n = 0; n < cells.size(); ++n) {
            const std::size_t i = cells[n];
            CellResult cell = result;
            cell.spec = plan.cells[i];
            cell.plan_index = i;
            cell.from_cache = !(executed_here && n == 0);
            if (cell.from_cache) cell.wall_seconds = 0.0;
            bus.deliver(slot_of_cell.at(i), std::move(cell));
        }
    };

    // Serve cache hits first — sinks can then emit the completed prefix
    // before any execution starts (a fully-cached resume streams the
    // whole plan immediately).
    std::vector<std::size_t> to_run;
    for (const std::size_t job : sched.owned_jobs) {
        const std::optional<CellResult> hit = cache_->lookup(sched.keys[sched.rep_cell[job]]);
        if (hit)
            deliver_job(job, *hit, /*executed_here=*/false);
        else
            to_run.push_back(job);
    }
    cache_hits_ += sched.owned_cells.size() - to_run.size();

    std::vector<const CellSpec*> jobs;
    jobs.reserve(to_run.size());
    for (const std::size_t job : to_run)
        jobs.push_back(&plan.cells[sched.rep_cell[job]]);

    std::mutex progress_mutex;
    executor_->execute(jobs, [&](std::size_t j, CellResult result) {
        const std::size_t job = to_run[j];
        // Store before delivery: once a cell is observable anywhere it is
        // also durable, so a crash mid-run resumes past every finished cell.
        cache_->store(sched.keys[sched.rep_cell[job]], result);
        deliver_job(job, result, /*executed_here=*/true);
        if (options_.progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            (*options_.progress) << '.' << std::flush;
        }
    });
    if (options_.progress && !jobs.empty()) (*options_.progress) << '\n';

    return bus.finish();
}

}  // namespace fare
