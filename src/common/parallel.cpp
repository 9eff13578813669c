#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace fare {

namespace {

// Current thread's width cap (SIZE_MAX = uncapped). Doubles as the nesting
// guard: pool workers run their items under a cap of 1.
thread_local std::size_t tls_width_cap = static_cast<std::size_t>(-1);

struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    // Workers still inside fn(); the submitter waits for this to hit zero.
    std::atomic<std::size_t> active{0};

    void run_items() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            // Fail fast: once any item throws, stop picking up new work
            // instead of burning the rest of the sweep before reporting.
            if (i >= count || failed.load(std::memory_order_relaxed)) return;
            try {
                (*fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    }
};

/// Lazily started pool of resolve_threads(0) - 1 helper threads (the
/// submitting thread is always the remaining worker). One job runs at a
/// time; concurrent top-level submitters queue on the submit mutex.
class WorkerPool {
public:
    static WorkerPool& instance() {
        static WorkerPool pool;
        return pool;
    }

    void run(Job& job, std::size_t width) {
        std::lock_guard<std::mutex> submit(submit_mutex_);
        // Honour explicit widths beyond the initial auto size: grow the pool
        // on demand (helpers are process-lifetime, so growth is one-way and
        // bounded by the largest width ever requested).
        while (helpers_.size() + 1 < width)
            helpers_.emplace_back([this] { helper_loop(); });
        const std::size_t helpers = std::min(width - 1, helpers_.size());
        job.active.store(helpers, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job_ = &job;
            wanted_ = helpers;
        }
        cv_.notify_all();
        // The submitter is a full participant: even if every helper is slow
        // to wake, the loop completes. Its own items must not fan out again.
        const std::size_t saved_cap = tls_width_cap;
        tls_width_cap = 1;
        job.run_items();
        tls_width_cap = saved_cap;
        std::unique_lock<std::mutex> lock(mutex_);
        job_ = nullptr;
        // Helpers that never woke up in time are not coming: stop counting
        // them as active participants before waiting for the stragglers.
        const std::size_t unclaimed = wanted_;
        wanted_ = 0;
        if (unclaimed > 0) job.active.fetch_sub(unclaimed);
        done_cv_.wait(lock, [&] { return job.active.load() == 0; });
    }

private:
    WorkerPool() {
        const std::size_t width = resolve_threads(0);
        helpers_.reserve(width > 1 ? width - 1 : 0);
        for (std::size_t t = 1; t < width; ++t)
            helpers_.emplace_back([this] { helper_loop(); });
    }

    ~WorkerPool() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto& th : helpers_) th.join();
    }

    void helper_loop() {
        tls_width_cap = 1;  // work items never fan out again
        for (;;) {
            Job* job = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] { return stop_ || (job_ != nullptr && wanted_ > 0); });
                if (stop_) return;
                job = job_;
                --wanted_;
            }
            job->run_items();
            if (job->active.fetch_sub(1) == 1) {
                std::lock_guard<std::mutex> lock(mutex_);
                done_cv_.notify_all();
            }
        }
    }

    std::vector<std::thread> helpers_;
    std::mutex submit_mutex_;  // one job in flight at a time
    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    Job* job_ = nullptr;
    std::size_t wanted_ = 0;  // helpers still to pick up the current job
    bool stop_ = false;
};

}  // namespace

std::size_t resolve_threads(std::size_t requested) {
    if (requested > 0) return requested;
    if (const auto env = env_positive_integer("FARE_THREADS")) return *env;
    // Floor at two workers: cells are coarse and results are order-independent,
    // so overlapping two cells is still worthwhile on a single visible core
    // (and keeps the parallel path exercised everywhere).
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 2 ? hw : 2;
}

void parallel_for_each(std::size_t threads, std::size_t count,
                       const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    std::size_t width = std::min(resolve_threads(threads), count);
    width = std::min(width, tls_width_cap);
    if (width <= 1) {
        // Serial path — also taken inside pool workers (no nested fan-out).
        // Keep the fail-fast contract: the first throw propagates, later
        // items are skipped.
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }

    Job job;
    job.fn = &fn;
    job.count = count;
    WorkerPool::instance().run(job, width);
    if (job.first_error) std::rethrow_exception(job.first_error);
}

ParallelWidthScope::ParallelWidthScope(std::size_t max_threads)
    : previous_(tls_width_cap) {
    // Scopes only tighten: a cap of 1 set by a pool worker (the nested-call
    // guard) must not be widened from inside the work item — fanning out
    // there would re-enter the pool's non-recursive submit lock.
    tls_width_cap = std::min(previous_, max_threads > 0 ? max_threads : 1);
}

ParallelWidthScope::~ParallelWidthScope() { tls_width_cap = previous_; }

}  // namespace fare
