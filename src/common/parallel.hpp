// Minimal data-parallel loop over a persistent worker pool.
//
// Two classes of caller share it: SimSession fans coarse experiment cells
// (seconds each) out across workers, and the numeric kernels
// (matmul / BatchGraphView aggregation) row-parallelise per-batch work
// (tens of microseconds each). The second class is why the pool is
// persistent — spawning threads per GEMM would cost more than the GEMM.
//
// Guarantees:
//  - fn(i) is invoked exactly once per i in [0, count); workers self-schedule
//    off a shared atomic index, so cross-worker ordering is unspecified and
//    callers index into pre-sized output slots.
//  - Calls from inside a pool worker run serially on the calling thread
//    (no nested fan-out): an experiment cell running on the session pool
//    computes its kernels inline instead of oversubscribing the machine.
//  - If any invocation throws, unstarted items are skipped (fail fast) and
//    the first exception is rethrown on the calling thread after the loop
//    drains.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

namespace fare {

/// Resolve a thread-count request: `requested` > 0 is taken literally;
/// 0 means "auto" — the FARE_THREADS environment variable if set, otherwise
/// std::thread::hardware_concurrency() floored at 2 workers. Throws
/// InvalidArgument when FARE_THREADS is set to anything but a positive
/// integer.
std::size_t resolve_threads(std::size_t requested);

/// Invoke fn(i) for every i in [0, count) across up to `threads` workers
/// (0 = auto). threads <= 1, nested calls, and count <= 1 degenerate to a
/// plain serial loop on the calling thread.
void parallel_for_each(std::size_t threads, std::size_t count,
                       const std::function<void(std::size_t)>& fn);

/// Work (in fused multiply-adds) below which a numeric kernel stays serial:
/// threading overhead outweighs the win. Shared by the GEMMs and the graph
/// aggregation so the tune lives in one place.
inline constexpr std::size_t kKernelParallelGrain = std::size_t{1} << 18;

/// Run `rows_fn(i0, i1)` over [0, rows): serial when `work` (multiply-adds)
/// is under kKernelParallelGrain or there are fewer than two chunks,
/// otherwise in `chunk`-row blocks across the pool. Chunking is independent
/// of the worker count and each chunk is computed exactly as in a serial
/// sweep, so results are bit-identical for any thread count (each output row
/// has exactly one writer).
template <typename RowsFn>
void parallel_row_blocks(std::size_t rows, std::size_t work, std::size_t chunk,
                         const RowsFn& rows_fn) {
    if (work < kKernelParallelGrain || rows < 2 * chunk) {
        rows_fn(std::size_t{0}, rows);
        return;
    }
    const std::size_t chunks = (rows + chunk - 1) / chunk;
    parallel_for_each(0, chunks, [&](std::size_t c) {
        const std::size_t i0 = c * chunk;
        rows_fn(i0, std::min(rows, i0 + chunk));
    });
}

/// RAII cap on parallel_for_each's width for the current thread: inside the
/// scope every call uses at most `max_threads` workers (1 = force serial).
/// Scopes only ever tighten an enclosing cap — in particular they cannot
/// widen the serial guard inside a pool work item. Lets the determinism
/// tests compare a forced-serial run against the pool bit for bit, and
/// benchmarks pin the serial baseline.
class ParallelWidthScope {
public:
    explicit ParallelWidthScope(std::size_t max_threads);
    ~ParallelWidthScope();
    ParallelWidthScope(const ParallelWidthScope&) = delete;
    ParallelWidthScope& operator=(const ParallelWidthScope&) = delete;

private:
    std::size_t previous_;
};

}  // namespace fare
