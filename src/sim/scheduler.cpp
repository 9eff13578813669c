#include "sim/scheduler.hpp"

#include <cstdlib>
#include <unordered_map>

namespace fare {

std::string ShardSpec::label() const {
    return std::to_string(index) + "/" + std::to_string(count);
}

Expected<ShardSpec> parse_shard(const std::string& text) {
    const auto slash = text.find('/');
    if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size())
        return Expected<ShardSpec>::failure("shard must be I/N, got '" + text +
                                            "'");
    // Both tokens must be fully-numeric: a typo'd shard ("l/4", "1x/4") that
    // silently parsed as another slice would run one shard twice and drop
    // the intended one, surfacing only at merge time — or never.
    const std::string index_text = text.substr(0, slash);
    const std::string count_text = text.substr(slash + 1);
    char* end = nullptr;
    const unsigned long long index = std::strtoull(index_text.c_str(), &end, 10);
    if (end != index_text.c_str() + index_text.size())
        return Expected<ShardSpec>::failure("shard index is not a number: '" +
                                            index_text + "'");
    const unsigned long long count = std::strtoull(count_text.c_str(), &end, 10);
    if (end != count_text.c_str() + count_text.size())
        return Expected<ShardSpec>::failure("shard count is not a number: '" +
                                            count_text + "'");
    if (count == 0 || index >= count)
        return Expected<ShardSpec>::failure("shard index " + index_text +
                                            " outside [0, " + count_text + ")");
    ShardSpec shard;
    shard.index = static_cast<std::size_t>(index);
    shard.count = static_cast<std::size_t>(count);
    return shard;
}

PlanScheduler::PlanScheduler(ShardSpec shard) : shard_(shard) {
    FARE_CHECK(shard_.count >= 1, "shard count must be >= 1");
    FARE_CHECK(shard_.index < shard_.count,
               "shard index " + std::to_string(shard_.index) +
                   " outside [0, " + std::to_string(shard_.count) + ")");
}

ScheduledPlan PlanScheduler::schedule(const ExperimentPlan& plan) const {
    ScheduledPlan sched;
    sched.keys.reserve(plan.cells.size());
    sched.job_of_cell.reserve(plan.cells.size());

    std::unordered_map<std::string, std::size_t> job_of_key;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        sched.keys.push_back(plan.cells[i].key());
        const auto [it, fresh] = job_of_key.emplace(sched.keys.back(), sched.rep_cell.size());
        if (fresh) sched.rep_cell.push_back(i);
        sched.job_of_cell.push_back(it->second);
    }

    for (std::size_t job = 0; job < sched.num_jobs(); ++job)
        if (job % shard_.count == shard_.index) sched.owned_jobs.push_back(job);
    for (std::size_t i = 0; i < plan.cells.size(); ++i)
        if (sched.job_of_cell[i] % shard_.count == shard_.index)
            sched.owned_cells.push_back(i);
    return sched;
}

ResultSet merge_shards(const ExperimentPlan& plan,
                       const std::vector<ResultSet>& shards) {
    ResultSet merged;
    merged.cells.resize(plan.cells.size());
    std::vector<char> seen(plan.cells.size(), 0);
    // A bad shard set is an input error: the messages name the cell only.
    for (const ResultSet& shard : shards) {
        for (const CellResult& cell : shard.cells) {
            if (cell.plan_index >= plan.cells.size())
                throw InvalidArgument("shard cell index " +
                                      std::to_string(cell.plan_index) + " outside plan '" +
                                      plan.name + "' (" +
                                      std::to_string(plan.cells.size()) + " cells)");
            if (seen[cell.plan_index])
                throw InvalidArgument("plan cell " + std::to_string(cell.plan_index) +
                                      " reported by two shards");
            seen[cell.plan_index] = 1;
            merged.cells[cell.plan_index] = cell;
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        if (!seen[i])
            throw InvalidArgument("plan cell " + std::to_string(i) +
                                  " missing from every shard");
    return merged;
}

}  // namespace fare
