// SimSession runner tests: parallel-vs-serial bit-identity, memoization hit
// accounting, plan-ordered sink reporting, and determinism of the
// declarative CellSpec path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "sim/cell_cache.hpp"
#include "sim/executor.hpp"
#include "sim/registry.hpp"
#include "sim/result_sink.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

/// A small but real grid: 2 schemes x 2 densities + the fault-free
/// reference, 3 epochs each — seconds, not minutes.
ExperimentPlan tiny_plan(const std::string& name = "tiny") {
    ExperimentPlan plan =
        SweepBuilder(name)
            .workload(find_workload("PPI", GnnKind::kGCN))
            .axis(&FaultScenario::density, {0.01, 0.05})
            .sa1_fraction(0.5)
            .schemes({Scheme::kFaultFree, Scheme::kFaultUnaware, Scheme::kFARe})
            .epochs(3)
            .build();
    return plan;
}

TEST(SimSessionTest, ParallelMatchesSerialBitForBit) {
    SessionOptions serial_opts;
    serial_opts.threads = 1;
    SimSession serial(serial_opts);
    SessionOptions parallel_opts;
    parallel_opts.threads = 4;
    SimSession parallel(parallel_opts);

    const ResultSet a = serial.run(tiny_plan());
    const ResultSet b = parallel.run(tiny_plan());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.cells[i].accuracy(), b.cells[i].accuracy()) << i;
        EXPECT_DOUBLE_EQ(a.cells[i].run.train.test_macro_f1,
                         b.cells[i].run.train.test_macro_f1)
            << i;
        EXPECT_DOUBLE_EQ(a.cells[i].run.total_mapping_cost,
                         b.cells[i].run.total_mapping_cost)
            << i;
        EXPECT_EQ(a.cells[i].from_cache, b.cells[i].from_cache) << i;
    }
}

TEST(SimSessionTest, MemoizationCountsAndCrossRunCache) {
    SimSession session;
    const ExperimentPlan plan = tiny_plan();
    // 6 listed cells; kFaultFree appears per density but normalises to one
    // key => 5 executions, 1 in-plan duplicate served from the memo.
    const ResultSet first = session.run(plan);
    EXPECT_EQ(session.cache_entries(), 5u);
    EXPECT_EQ(session.cache_hits(), 1u);
    EXPECT_EQ(first.cells[0].from_cache, false);   // ff @ 1% executed
    EXPECT_EQ(first.cells[3].from_cache, true);    // ff @ 5% memoized
    EXPECT_DOUBLE_EQ(first.cells[0].accuracy(), first.cells[3].accuracy());

    // Re-running the same plan executes nothing new.
    const ResultSet again = session.run(plan);
    EXPECT_EQ(session.cache_entries(), 5u);
    EXPECT_EQ(session.cache_hits(), 7u);  // 1 + all 6
    for (const CellResult& cell : again) EXPECT_TRUE(cell.from_cache);
    for (std::size_t i = 0; i < again.size(); ++i)
        EXPECT_DOUBLE_EQ(first.cells[i].accuracy(), again.cells[i].accuracy());
}

TEST(SimSessionTest, ResultSetLookup) {
    SimSession session;
    const ResultSet results = session.run(tiny_plan());
    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    const CellResult& fare = results.at(w, Scheme::kFARe, 0.05);
    EXPECT_EQ(fare.spec.scheme, Scheme::kFARe);
    EXPECT_DOUBLE_EQ(fare.spec.faults.density, 0.05);
    EXPECT_GT(results.accuracy(w, Scheme::kFaultFree), 0.5);
    EXPECT_THROW(results.at(w, Scheme::kNeuronReorder), InvalidArgument);
    EXPECT_THROW(
        results.at(find_workload("Reddit", GnnKind::kGCN), Scheme::kFARe),
        InvalidArgument);
    // Mode filter: this plan only has training cells.
    EXPECT_NO_THROW(results.at(w, Scheme::kFARe, -1.0, -1.0, CellMode::kTrain));
    EXPECT_THROW(results.at(w, Scheme::kFARe, -1.0, -1.0, CellMode::kDeploy),
                 InvalidArgument);
}

TEST(SimSessionTest, SinksObserveCellsInPlanOrder) {
    SimSession session;
    std::ostringstream table_out;
    session.add_sink(std::make_unique<ConsoleTableSink>(table_out));
    const std::string json_path = ::testing::TempDir() + "/cells.json";
    session.add_sink(std::make_unique<JsonLinesSink>(json_path));

    const ExperimentPlan plan = tiny_plan("sink_plan");
    const ResultSet results = session.run(plan);

    // Console table: header + one row per cell.
    EXPECT_NE(table_out.str().find("sink_plan"), std::string::npos);
    EXPECT_NE(table_out.str().find("fault-unaware"), std::string::npos);

    std::ifstream json(json_path);
    std::string line;
    std::size_t json_lines = 0;
    while (std::getline(json, line)) {
        // Plan-ordered: the cell index field counts up from 0.
        EXPECT_NE(
            line.find("\"cell\":" + std::to_string(json_lines)),
            std::string::npos)
            << line;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        ++json_lines;
    }
    EXPECT_EQ(json_lines, plan.size());
    (void)results;
    std::remove(json_path.c_str());
}

TEST(SimSessionTest, ExplicitPathSinksAccumulateAcrossPlans) {
    SimSession session;
    const std::string json_path = ::testing::TempDir() + "/multi.json";
    session.add_sink(std::make_unique<JsonLinesSink>(json_path));

    const ExperimentPlan plan = tiny_plan("multi");
    session.run(plan);
    session.run(plan);  // second plan: fully cached, still reported

    std::string line;
    std::ifstream json(json_path);
    std::size_t json_lines = 0;
    while (std::getline(json, line)) ++json_lines;
    EXPECT_EQ(json_lines, 2 * plan.size());
    std::remove(json_path.c_str());
}

TEST(SimSessionTest, JsonCellFieldsSelfDescribing) {
    CellSpec spec;
    spec.workload = find_workload("PPI", GnnKind::kGCN);
    spec.scheme = Scheme::kFARe;
    spec.faults = FaultScenario::pre_deployment(0.05, 0.5);
    spec.epochs = 2;
    const CellResult result = run_cell(spec);
    const std::string json = cell_to_json("unit", 3, result);
    EXPECT_NE(json.find("\"plan\":\"unit\""), std::string::npos);
    EXPECT_NE(json.find("\"cell\":3"), std::string::npos);
    EXPECT_NE(json.find("\"dataset\":\"PPI\""), std::string::npos);
    EXPECT_NE(json.find("\"scheme\":\"FARe\""), std::string::npos);
    EXPECT_NE(json.find("\"density\":0.05"), std::string::npos);
    EXPECT_NE(json.find("\"accuracy\":"), std::string::npos);
    EXPECT_NE(json.find("\"bist_scans\":"), std::string::npos);
}

TEST(SimSessionTest, DeployModeCellsCarryDeploymentResult) {
    CellSpec spec;
    spec.workload = find_workload("PPI", GnnKind::kGCN);
    spec.scheme = Scheme::kFARe;
    spec.faults = FaultScenario::pre_deployment(0.05, 0.5);
    spec.mode = CellMode::kDeploy;
    spec.epochs = 3;
    const CellResult result = run_cell(spec);
    EXPECT_GT(result.deployment.trained_accuracy, 0.0);
    EXPECT_GT(result.deployment.deployed_accuracy, 0.0);
    EXPECT_DOUBLE_EQ(result.accuracy(), result.deployment.deployed_accuracy);
    const std::string json = cell_to_json("deploy", 0, result);
    EXPECT_NE(json.find("\"trained_accuracy\":"), std::string::npos);
}

/// Records delivery order and lifecycle callbacks.
class RecordingSink final : public ResultSink {
public:
    void begin(const ExperimentPlan&) override { ++begins; }
    void cell(const CellResult& result) override {
        indices.push_back(result.plan_index);
    }
    void end(const ExperimentPlan&) override { ++ends; }

    std::vector<std::size_t> indices;
    int begins = 0;
    int ends = 0;
};

TEST(SimSessionTest, StreamingSinkSeesOrderedPrefixDelivery) {
    SessionOptions options;
    options.threads = 4;  // workers finish out of order; delivery must not
    SimSession session(options);
    auto first_sink = std::make_unique<RecordingSink>();
    RecordingSink* first = first_sink.get();
    session.add_sink(std::move(first_sink));
    auto second_sink = std::make_unique<RecordingSink>();
    RecordingSink* second = second_sink.get();
    session.add_sink(std::move(second_sink));

    const ExperimentPlan plan = tiny_plan("streamed");
    const ResultSet results = session.run(plan);

    // Every sink observes every cell in strict plan order.
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < plan.size(); ++i) expected.push_back(i);
    EXPECT_EQ(first->indices, expected);
    EXPECT_EQ(second->indices, expected);
    EXPECT_EQ(first->begins, 1);
    EXPECT_EQ(first->ends, 1);
    EXPECT_EQ(second->begins, 1);
    EXPECT_EQ(second->ends, 1);
    ASSERT_EQ(results.size(), plan.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results.cells[i].plan_index, i);
}

/// Runs jobs in order on the calling thread and, before job k, checks that
/// `sink` has already been handed cells 0..k-1. Results are synthetic: only
/// their delivery is under test.
class PrefixCheckingExecutor final : public CellExecutor {
public:
    explicit PrefixCheckingExecutor(const RecordingSink& sink) : sink_(sink) {}
    void execute(const std::vector<const CellSpec*>& jobs,
                 const DoneFn& done) override {
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            std::vector<std::size_t> prefix(k);
            std::iota(prefix.begin(), prefix.end(), std::size_t{0});
            EXPECT_EQ(sink_.indices, prefix) << "before job " << k;
            CellResult result;
            result.spec = *jobs[k];
            done(k, std::move(result));
        }
    }
    std::size_t width() const override { return 1; }

private:
    const RecordingSink& sink_;
};

TEST(SimSessionTest, SinkSeesEachCellBeforeTheNextJobRuns) {
    const ExperimentPlan plan =
        SweepBuilder("prefix")
            .workload(find_workload("PPI", GnnKind::kGCN))
            .axis(&FaultScenario::density, {0.01, 0.05})
            .sa1_fraction(0.5)
            .schemes({Scheme::kFaultUnaware, Scheme::kFARe})
            .build();
    // No duplicate keys, so job k is plan cell k.
    ASSERT_EQ(PlanScheduler().schedule(plan).num_jobs(), plan.size());

    auto recording = std::make_unique<RecordingSink>();
    RecordingSink* sink = recording.get();
    SimSession session(SessionOptions{},
                       std::make_unique<PrefixCheckingExecutor>(*sink), nullptr);
    session.add_sink(std::move(recording));
    session.run(plan);
    EXPECT_EQ(sink->indices.size(), plan.size());
    EXPECT_EQ(sink->ends, 1);
}

TEST(SimSessionTest, JsonLinesSinkPublishesAtomically) {
    const std::string path = ::testing::TempDir() + "/atomic.json";
    std::remove(path.c_str());
    const ExperimentPlan plan = tiny_plan("atomic");

    {
        // Simulated crash: cells reported but the plan never ends. Nothing
        // may appear at the published path — only the staging file.
        SimSession session;
        auto& sink = session.add_sink(std::make_unique<JsonLinesSink>(path));
        sink.begin(plan);
        CellResult fake;
        fake.spec = plan.cells[0];
        sink.cell(fake);
    }
    EXPECT_FALSE(std::ifstream(path).good());
    EXPECT_TRUE(std::ifstream(path + ".tmp").good());

    // A completed run publishes the full file and removes the staging copy.
    SimSession session;
    session.add_sink(std::make_unique<JsonLinesSink>(path));
    session.run(plan);
    std::ifstream published(path);
    ASSERT_TRUE(published.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(published, line)) ++lines;
    EXPECT_EQ(lines, plan.size());
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::remove(path.c_str());
}

TEST(SeedStatsSinkTest, AggregatesMeanAndSigmaOverSeeds) {
    // Driven directly with synthetic results — no training required.
    std::ostringstream out;
    SeedStatsSink sink(out);
    ExperimentPlan plan;
    plan.name = "stats";
    sink.begin(plan);

    const WorkloadSpec w = find_workload("PPI", GnnKind::kGCN);
    const double accs[3] = {0.8, 0.9, 1.0};
    for (int group = 0; group < 2; ++group) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            CellResult r;
            r.spec.workload = w;
            r.spec.scheme = group == 0 ? Scheme::kFaultUnaware : Scheme::kFARe;
            r.spec.faults = FaultScenario::pre_deployment(0.03, 0.5);
            r.spec.seed = seed;
            r.run.train.test_accuracy = accs[seed - 1] - 0.1 * group;
            r.run.train.test_macro_f1 = 0.5;
            sink.cell(r);
            // In-plan duplicates of one canonical cell (e.g. the fault-free
            // reference repeated per density row) must not inflate n.
            sink.cell(r);
        }
    }
    sink.end(plan);

    ASSERT_EQ(sink.rows().size(), 2u);  // one row per coordinate, not per seed
    const SeedStatsSink::Row& fu = sink.rows()[0];
    EXPECT_EQ(fu.spec.scheme, Scheme::kFaultUnaware);
    EXPECT_EQ(fu.accuracy.n, 3u);
    EXPECT_NEAR(fu.accuracy.mean, 0.9, 1e-12);
    EXPECT_NEAR(fu.accuracy.stddev(), 0.1, 1e-12);  // sample sigma of .8/.9/1
    EXPECT_DOUBLE_EQ(fu.accuracy.min, 0.8);
    EXPECT_DOUBLE_EQ(fu.accuracy.max, 1.0);
    EXPECT_NEAR(fu.macro_f1.mean, 0.5, 1e-12);
    const SeedStatsSink::Row& fare = sink.rows()[1];
    EXPECT_EQ(fare.spec.scheme, Scheme::kFARe);
    EXPECT_NEAR(fare.accuracy.mean, 0.8, 1e-12);

    // The printed table appears at end().
    EXPECT_NE(out.str().find("stats seed stats (2 coordinates)"),
              std::string::npos)
        << out.str();

    // A single replicate reports sigma 0 (no error bar, not NaN).
    SeedStatsSink::Stats one;
    one.add(0.5);
    EXPECT_DOUBLE_EQ(one.stddev(), 0.0);
}

// The PR 1 positional wrappers (run_accuracy_cell / run_postdeploy_cell)
// are gone; the declarative CellSpec path below is the only spelling, and
// this pins its determinism where the wrapper-equivalence test used to live.
TEST(SimSessionTest, DeclarativeCellPathIsDeterministic) {
    setenv("FARE_EPOCHS", "3", 1);
    CellSpec spec;
    spec.workload = find_workload("PPI", GnnKind::kGCN);
    spec.scheme = Scheme::kFARe;
    spec.faults = FaultScenario::pre_deployment(0.05, 0.5);
    spec.seed = 1;
    const CellResult first = run_cell(spec);
    const CellResult second = run_cell(spec);
    EXPECT_DOUBLE_EQ(first.accuracy(), second.accuracy());
    EXPECT_DOUBLE_EQ(first.run.total_mapping_cost,
                     second.run.total_mapping_cost);

    spec.faults = FaultScenario::pre_deployment(0.02, 0.5)
                      .with_post_deployment(0.01);
    const CellResult post = run_cell(spec);
    const CellResult post_again = run_cell(spec);
    EXPECT_DOUBLE_EQ(post.accuracy(), post_again.accuracy());
    unsetenv("FARE_EPOCHS");
}

}  // namespace
}  // namespace fare
