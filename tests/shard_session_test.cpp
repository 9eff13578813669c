// Sharded execution and crash/resume: the PlanScheduler partition, N-shard
// runs merging bit-identical to a single session, and a DiskCellCache resume
// that re-executes only corrupted + missing cells.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/cell_cache.hpp"
#include "sim/scheduler.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

/// 6 listed cells / 5 unique (the fault-free reference repeats per density),
/// 2 epochs each — the same grid shape the session tests use, but faster.
ExperimentPlan tiny_plan(const std::string& name = "shard_tiny") {
    return SweepBuilder(name)
        .workload(find_workload("PPI", GnnKind::kGCN))
        .axis(&FaultScenario::density, {0.01, 0.05})
        .sa1_fraction(0.5)
        .schemes({Scheme::kFaultFree, Scheme::kFaultUnaware, Scheme::kFARe})
        .epochs(2)
        .build();
}

std::string temp_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

void expect_bit_identical(const ResultSet& a, const ResultSet& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.cells[i].plan_index, b.cells[i].plan_index) << i;
        EXPECT_EQ(a.cells[i].spec.key(), b.cells[i].spec.key()) << i;
        EXPECT_DOUBLE_EQ(a.cells[i].accuracy(), b.cells[i].accuracy()) << i;
        EXPECT_DOUBLE_EQ(a.cells[i].run.train.test_macro_f1,
                         b.cells[i].run.train.test_macro_f1)
            << i;
        EXPECT_DOUBLE_EQ(a.cells[i].run.total_mapping_cost,
                         b.cells[i].run.total_mapping_cost)
            << i;
        EXPECT_EQ(a.cells[i].run.bist_scans, b.cells[i].run.bist_scans) << i;
    }
}

TEST(ShardSpecTest, ParseAndValidate) {
    const Expected<ShardSpec> ok = parse_shard("2/4");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().index, 2u);
    EXPECT_EQ(ok.value().count, 4u);
    EXPECT_EQ(ok.value().label(), "2/4");
    EXPECT_FALSE(ok.value().whole_plan());
    EXPECT_TRUE(ShardSpec{}.whole_plan());
    EXPECT_FALSE(parse_shard("4/4").ok());  // index out of range
    EXPECT_FALSE(parse_shard("0/0").ok());
    EXPECT_FALSE(parse_shard("nonsense").ok());
    EXPECT_FALSE(parse_shard("/3").ok());
    EXPECT_FALSE(parse_shard("l/4").ok());   // typo'd digit must not parse...
    EXPECT_FALSE(parse_shard("1x/4").ok());  // ...as a different slice
    EXPECT_FALSE(parse_shard("1/4x").ok());
    ShardSpec bad;
    bad.index = 3;
    bad.count = 2;
    EXPECT_THROW(PlanScheduler{bad}, InvalidArgument);
}

TEST(PlanSchedulerTest, DedupAndShardPartition) {
    const ExperimentPlan plan = tiny_plan();
    const ScheduledPlan whole = PlanScheduler{}.schedule(plan);
    ASSERT_EQ(whole.keys.size(), 6u);
    EXPECT_EQ(whole.num_jobs(), 5u);  // fault-free reference deduplicated
    EXPECT_EQ(whole.job_of_cell[0], whole.job_of_cell[3]);  // ff @ both rows
    EXPECT_EQ(whole.rep_cell[whole.job_of_cell[3]], 0u);    // rep = first seen
    EXPECT_EQ(whole.owned_cells.size(), 6u);
    EXPECT_EQ(whole.owned_jobs.size(), 5u);

    // Two shards: jobs split round-robin, every plan cell owned exactly once,
    // and duplicates of a key land in the same shard as their job.
    ShardSpec s0{0, 2}, s1{1, 2};
    const ScheduledPlan a = PlanScheduler{s0}.schedule(plan);
    const ScheduledPlan b = PlanScheduler{s1}.schedule(plan);
    EXPECT_EQ(a.owned_jobs.size() + b.owned_jobs.size(), 5u);
    std::vector<char> owned(plan.size(), 0);
    for (const std::size_t i : a.owned_cells) ++owned[i];
    for (const std::size_t i : b.owned_cells) ++owned[i];
    for (std::size_t i = 0; i < owned.size(); ++i)
        EXPECT_EQ(owned[i], 1) << "cell " << i;
}

/// The InvalidArgument text merge_shards throws for a bad shard set.
std::string merge_error(const ExperimentPlan& plan, const std::vector<ResultSet>& shards) {
    try {
        merge_shards(plan, shards);
    } catch (const InvalidArgument& e) {
        return e.what();
    }
    ADD_FAILURE() << "merge_shards accepted a bad shard set";
    return {};
}

TEST(MergeShardsTest, RejectsOverlapAndGaps) {
    const ExperimentPlan plan = tiny_plan();
    SimSession session;
    const ResultSet whole = session.run(plan);
    ResultSet partial = whole;
    partial.cells.pop_back();
    ResultSet outside = whole;
    outside.cells.back().plan_index = plan.size();
    // A bad shard set is the caller's input error: each message names the
    // cell and carries no internal-assertion text.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {merge_error(plan, {whole, whole}), "plan cell 0 reported by two shards"},
        {merge_error(plan, {partial}), "plan cell 5 missing from every shard"},
        {merge_error(plan, {outside}), "shard cell index 6 outside plan"},
    };
    for (const auto& [error, expected] : cases) {
        EXPECT_NE(error.find(expected), std::string::npos) << error;
        EXPECT_EQ(error.find("FARE_CHECK"), std::string::npos) << error;
        EXPECT_EQ(error.find("scheduler.cpp"), std::string::npos) << error;
    }
    expect_bit_identical(merge_shards(plan, {whole}), whole);
}

TEST(ShardSessionTest, ThreeShardsMergeBitIdenticalToOneSession) {
    const ExperimentPlan plan = tiny_plan();
    SessionOptions serial;
    serial.threads = 1;
    SimSession single(serial);
    const ResultSet reference = single.run(plan);
    ASSERT_EQ(reference.size(), 6u);

    std::vector<ResultSet> shards;
    std::size_t total_owned = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        SessionOptions options;
        options.threads = 2;  // sharded AND parallel within the shard
        options.shard = ShardSpec{i, 3};
        SimSession shard_session(options);
        shards.push_back(shard_session.run(plan));
        total_owned += shards.back().size();
        // Each shard reports only its slice, stamped with global indices.
        for (const CellResult& cell : shards.back().cells)
            EXPECT_EQ(cell.spec.key(), plan.cells[cell.plan_index].key());
    }
    EXPECT_EQ(total_owned, plan.size());
    expect_bit_identical(merge_shards(plan, shards), reference);
}

TEST(ShardSessionTest, ResumeReExecutesOnlyCorruptAndMissingCells) {
    const std::string dir = temp_dir("resume_cache");
    const ExperimentPlan plan = tiny_plan("resume");

    // Reference: a plain uncached run of the full plan.
    SimSession uncached;
    const ResultSet reference = uncached.run(plan);

    // "Interrupted" sweep: only the first density row (cells 0-3) completed
    // before the kill. 3 unique cells reach the disk cache.
    {
        ExperimentPlan partial = plan;
        partial.cells.resize(4);
        SessionOptions options;
        options.cache_dir = dir;
        SimSession session(options);
        session.run(partial);
    }  // session dropped — like a killed process

    // Corrupt the persisted fault-unaware line (a torn tail write).
    const std::string file =
        (std::filesystem::path(dir) / DiskCellCache::kCacheFileName).string();
    std::vector<std::string> lines;
    {
        std::ifstream in(file);
        std::string line;
        while (std::getline(in, line)) lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 3u);
    std::size_t corrupted = lines.size();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].find("fault-unaware") != std::string::npos) {
            lines[i] = lines[i].substr(0, lines[i].size() / 2);
            corrupted = i;
            break;
        }
    }
    ASSERT_NE(corrupted, lines.size());
    {
        std::ofstream out(file, std::ios::trunc);
        for (const std::string& line : lines) out << line << '\n';
    }

    // Fresh session, same cache dir, full plan: only the corrupted cell and
    // the never-run second density row execute; everything else is served
    // from disk.
    SessionOptions options;
    options.cache_dir = dir;
    SimSession resumed(options);
    auto* cache = dynamic_cast<DiskCellCache*>(&resumed.cache());
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->corrupt_lines_skipped(), 1u);
    const ResultSet results = resumed.run(plan);

    std::vector<std::string> executed;
    for (const CellResult& cell : results.cells)
        if (!cell.from_cache) executed.push_back(cell.spec.label());
    // fault-unaware @ 1% (corrupt) + fault-unaware / FARe @ 5% (missing).
    ASSERT_EQ(executed.size(), 3u) << "re-executed: " << executed.size();
    EXPECT_NE(executed[0].find("fault-unaware / d=1%"), std::string::npos);
    EXPECT_NE(executed[1].find("fault-unaware / d=5%"), std::string::npos);
    EXPECT_NE(executed[2].find("FARe / d=5%"), std::string::npos);

    // And the resumed ResultSet is bit-identical to the uncached run.
    expect_bit_identical(results, reference);

    // A third run is fully cached.
    SessionOptions again;
    again.cache_dir = dir;
    SimSession warm(again);
    const ResultSet cached = warm.run(plan);
    for (const CellResult& cell : cached) EXPECT_TRUE(cell.from_cache);
    expect_bit_identical(cached, reference);
}

}  // namespace
}  // namespace fare
