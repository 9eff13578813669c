#include "sim/executor.hpp"

#include "common/parallel.hpp"

namespace fare {

CellExecutor::~CellExecutor() = default;

PoolExecutor::PoolExecutor(std::size_t threads) : threads_(threads) {}

std::size_t PoolExecutor::width() const { return resolve_threads(threads_); }

void PoolExecutor::execute(const std::vector<const CellSpec*>& jobs,
                           const DoneFn& done) {
    parallel_for_each(threads_, jobs.size(),
                      [&](std::size_t j) { done(j, run_cell(*jobs[j])); });
}

}  // namespace fare
