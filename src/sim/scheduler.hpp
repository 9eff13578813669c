// PlanScheduler: the pure front half of plan execution. Canonicalises an
// ExperimentPlan into unique cell keys (deduplicating equal-key cells, e.g.
// the fault-free reference listed in every density row) and partitions the
// unique cells into deterministic shards. A SimSession configured with a
// ShardSpec runs only its slice; N shard runs — separate sessions or
// separate processes (`fare-run` + scripts/shard_run.sh) — merge back into a
// ResultSet bit-identical to a single-session run of the whole plan.
//
// Sharding is a pure function of the plan: unique cells are numbered in
// first-appearance order and cell j belongs to shard (j % count), so every
// participant computes the same partition without coordination, and all
// duplicates of a key land in exactly one shard.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/cell.hpp"
#include "sim/plan.hpp"

namespace fare {

/// One slice of a sharded plan. The default (0 of 1) is "the whole plan".
struct ShardSpec {
    std::size_t index = 0;
    std::size_t count = 1;

    bool whole_plan() const { return count <= 1; }
    std::string label() const;  ///< "2/4"
};

/// Parse a CLI shard argument "I/N" (I in [0, N)).
Expected<ShardSpec> parse_shard(const std::string& text);

/// A plan lowered to executable form: canonical keys, the unique-cell (job)
/// table, and this shard's slice of both cells and jobs.
struct ScheduledPlan {
    /// Canonical key per plan cell (parallel to plan.cells).
    std::vector<std::string> keys;
    /// Unique-job index per plan cell: every cell of the same key maps to
    /// one job.
    std::vector<std::size_t> job_of_cell;
    /// Job -> plan index of its first appearance (the representative spec).
    std::vector<std::size_t> rep_cell;
    /// Plan indices owned by the shard, ascending (the run's report slice).
    std::vector<std::size_t> owned_cells;
    /// Job ids owned by the shard, ascending.
    std::vector<std::size_t> owned_jobs;

    std::size_t num_jobs() const { return rep_cell.size(); }
};

class PlanScheduler {
public:
    explicit PlanScheduler(ShardSpec shard = {});

    ScheduledPlan schedule(const ExperimentPlan& plan) const;

private:
    ShardSpec shard_;
};

/// Reassemble shard runs of one plan into the plan-ordered ResultSet a
/// single session would have produced. Shards must jointly cover the plan
/// exactly once (checked via CellResult::plan_index); partial or overlapping
/// coverage throws InvalidArgument.
ResultSet merge_shards(const ExperimentPlan& plan,
                       const std::vector<ResultSet>& shards);

}  // namespace fare
