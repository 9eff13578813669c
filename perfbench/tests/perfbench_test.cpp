// Tests of the benchmark harness itself: order statistics, the span log's
// self-time arithmetic, the metric catalogue against BENCHMARK.json, and the
// traced cell's byte-identity with run_cell.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "cell_split.hpp"
#include "report.hpp"
#include "sim/builtin_plans.hpp"
#include "sim/registry.hpp"
#include "sim/serialization.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
    return v;
}

TEST(Stats, MedianOfOddAndEvenCounts) {
    EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(pb::median({7.0}), 7.0);
    EXPECT_THROW(pb::median({}), std::invalid_argument);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyondIt) {
    // 100 samples: rank 90 leaves exactly 10 beyond.
    const std::optional<double> p90 = pb::tail_percentile(ramp(100), 0.9);
    ASSERT_TRUE(p90.has_value());
    EXPECT_DOUBLE_EQ(*p90, 90.0);
    // 99 samples: rank ceil(89.1) = 90 leaves 9 beyond -> refused.
    EXPECT_FALSE(pb::tail_percentile(ramp(99), 0.9).has_value());
    EXPECT_FALSE(pb::tail_percentile(ramp(10), 0.9).has_value());
    EXPECT_FALSE(pb::tail_percentile({}, 0.5).has_value());
    // The median of 21 samples has 10 beyond it.
    EXPECT_DOUBLE_EQ(*pb::tail_percentile(ramp(21), 0.5), 11.0);
    EXPECT_FALSE(pb::tail_percentile(ramp(20), 0.5, 11).has_value());
}

TEST(Stats, HarrellDavisKeepsTheTailRuleAndSmoothsRanks) {
    // Symmetric samples: the median estimate is the centre.
    EXPECT_NEAR(*pb::harrell_davis(ramp(101), 0.5), 51.0, 1e-9);
    EXPECT_NEAR(*pb::harrell_davis(std::vector<double>(150, 0.25), 0.9), 0.25, 1e-12);
    // p90 of 1..200 sits near rank 0.9 * 201 = 180.9, between the order
    // statistics either side of it.
    const double p90 = *pb::harrell_davis(ramp(200), 0.9);
    EXPECT_GT(p90, 179.0);
    EXPECT_LT(p90, 182.0);
    EXPECT_FALSE(pb::harrell_davis(ramp(99), 0.9).has_value());
    EXPECT_TRUE(pb::harrell_davis(ramp(100), 0.9).has_value());
    // One sample moving past its neighbours shifts the estimate only a
    // little; the nearest-rank p90 jumps with it.
    std::vector<double> step(150, 1.0);
    for (std::size_t i = 135; i < 150; ++i) step[i] = 2.0;
    std::vector<double> shifted = step;
    shifted[134] = 2.0;
    EXPECT_DOUBLE_EQ(*pb::tail_percentile(step, 0.9), 1.0);
    EXPECT_DOUBLE_EQ(*pb::tail_percentile(shifted, 0.9), 2.0);
    EXPECT_LT(*pb::harrell_davis(shifted, 0.9) - *pb::harrell_davis(step, 0.9), 0.25);
}

TEST(Trace, SelfTimeSubtractsDirectChildrenOnEachThread) {
    // Thread 0: a[0,10] > b[1,4] > c[2,3]; a > d[5,9]. Thread 1: e[0,6] > f[1,2].
    const std::vector<pb::Span> spans = {
        {"a", 0, -1, 0.0, 10.0}, {"b", 0, 0, 1.0, 4.0}, {"c", 0, 1, 2.0, 3.0},
        {"d", 0, 0, 5.0, 9.0},   {"e", 1, -1, 0.0, 6.0}, {"f", 1, 4, 1.0, 2.0},
    };
    const std::vector<double> self = pb::self_times(spans);
    const std::vector<double> want = {3.0, 2.0, 1.0, 4.0, 5.0, 1.0};
    ASSERT_EQ(self.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_DOUBLE_EQ(self[i], want[i]) << i;

    const std::vector<pb::LayerTime> table = pb::layer_table(spans);
    ASSERT_EQ(table.front().name, "e");  // largest self time first
    EXPECT_DOUBLE_EQ(table.front().self_s, 5.0);
}

TEST(Trace, RecordedSpansNestPerThread) {
    pb::start_recording();
    const auto work = [] {
        pb::ScopedSpan outer("outer");
        for (int i = 0; i < 2; ++i) {
            pb::ScopedSpan inner("inner");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    };
    std::thread a(work), b(work);
    a.join();
    b.join();
    pb::stop_recording();
    { pb::ScopedSpan ignored("after-stop"); }
    const std::vector<pb::Span> spans = pb::recorded_spans();
    ASSERT_EQ(spans.size(), 6u);
    std::set<int> threads;
    const std::vector<double> self = pb::self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const pb::Span& s = spans[i];
        threads.insert(s.thread);
        EXPECT_LE(s.start_s, s.end_s);
        if (std::string(s.name) == "outer") {
            EXPECT_EQ(s.parent, -1);
        } else {
            ASSERT_GE(s.parent, 0);
            const pb::Span& p = spans[static_cast<std::size_t>(s.parent)];
            EXPECT_STREQ(p.name, "outer");
            EXPECT_EQ(p.thread, s.thread);
            EXPECT_LE(p.start_s, s.start_s);
            EXPECT_GE(p.end_s, s.end_s);
        }
        EXPECT_GE(self[i], 0.0);
    }
    EXPECT_EQ(threads.size(), 2u);
    std::ostringstream trace;
    pb::write_chrome_trace(spans, trace);
    EXPECT_TRUE(fare::parse_json(trace.str()).ok());
}

TEST(Metrics, NameCharacterSet) {
    EXPECT_TRUE(pb::valid_metric_name("cells_per_s"));
    EXPECT_TRUE(pb::valid_metric_name("fare.preprocess_s"));
    EXPECT_TRUE(pb::valid_metric_name("9-lives.x_y"));
    EXPECT_TRUE(pb::valid_metric_name(std::string(64, 'a')));
    EXPECT_FALSE(pb::valid_metric_name(std::string(65, 'a')));
    EXPECT_FALSE(pb::valid_metric_name(""));
    EXPECT_FALSE(pb::valid_metric_name("_leading"));
    EXPECT_FALSE(pb::valid_metric_name(".leading"));
    EXPECT_FALSE(pb::valid_metric_name("has space"));
    EXPECT_FALSE(pb::valid_metric_name("slash/no"));
    EXPECT_FALSE(pb::valid_metric_name("pct%"));
    EXPECT_TRUE(pb::valid_metric_unit("1/s"));
    EXPECT_TRUE(pb::valid_metric_unit("%"));
    EXPECT_FALSE(pb::valid_metric_unit("per second"));
    EXPECT_FALSE(pb::valid_metric_unit(std::string(17, 's')));
}

/// name -> unit of one BENCHMARK.json metric list.
std::map<std::string, std::string> listed(const fare::JsonValue& doc, const char* key) {
    std::map<std::string, std::string> out;
    const fare::JsonValue* list = doc.find(key);
    if (list == nullptr) return out;
    for (const fare::JsonValue& m : list->items)
        out[m.find("name")->as_string()] = m.find("unit")->as_string();
    return out;
}

std::map<std::string, std::string> catalogue(const std::vector<pb::MetricDef>& defs) {
    std::map<std::string, std::string> out;
    for (const pb::MetricDef& d : defs) {
        EXPECT_TRUE(pb::valid_metric_name(d.name)) << d.name;
        EXPECT_TRUE(pb::valid_metric_unit(d.unit)) << d.unit;
        out[d.name] = d.unit;
    }
    return out;
}

TEST(Metrics, CatalogueMatchesBenchmarkJson) {
    std::ifstream in(PERFBENCH_REPO_ROOT "/BENCHMARK.json");
    ASSERT_TRUE(in) << "BENCHMARK.json not found";
    std::stringstream text;
    text << in.rdbuf();
    const auto doc = fare::parse_json(text.str());
    ASSERT_TRUE(doc.ok()) << doc.error();
    EXPECT_EQ(listed(doc.value(), "end_to_end"), catalogue(pb::end_to_end_metrics()));
    EXPECT_EQ(listed(doc.value(), "per_layer"), catalogue(pb::per_layer_metrics()));
    std::set<std::string> names;
    for (const fare::JsonValue& w : doc.value().find("workloads")->items)
        names.insert(w.find("name")->as_string());
    std::set<std::string> built;
    for (const pb::Workload& w : pb::workloads()) built.insert(w.name);
    EXPECT_EQ(names, built);
}

TEST(Metrics, ResultLineRefusesMissingOrNonFiniteValues) {
    const std::vector<pb::MetricDef> defs = {{"a_s", "s"}};
    EXPECT_EQ(pb::result_json(true, 3, 0, defs, {{"a_s", 0.5}}),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
              "{\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
    EXPECT_THROW(pb::result_json(true, 1, 0, defs, {}), std::logic_error);
    EXPECT_THROW(pb::result_json(true, 1, 0, defs, {{"a_s", std::nan("")}}),
                 std::logic_error);
}

TEST(Workloads, EachExecutesAtLeastOneHundredDistinctCells) {
    for (const pb::Workload& w : pb::workloads()) {
        const fare::ExperimentPlan plan = w.build(11);
        std::set<std::string> keys;
        for (const fare::CellSpec& cell : plan.cells) {
            keys.insert(cell.key());
            EXPECT_TRUE(cell.epochs.has_value()) << w.name;
        }
        EXPECT_GE(keys.size(), 100u) << w.name;
        EXPECT_EQ(pb::find_workload(w.name), &w);
        // Same seed, same cells; another seed, other cells.
        EXPECT_EQ(w.build(11).cells.front().key(), plan.cells.front().key());
        EXPECT_NE(w.build(12).cells.front().key(), plan.cells.front().key());
    }
    EXPECT_EQ(pb::find_workload("nope"), nullptr);
}

std::string canonical(fare::CellResult cell) {
    cell.wall_seconds = 0.0;
    cell.run.train.preprocess_seconds = 0.0;
    cell.run.train.train_seconds = 0.0;
    return fare::cell_result_to_json(cell);
}

void expect_split_matches_run_cell(fare::CellSpec spec) {
    spec.epochs = 1;
    const fare::CellResult plain = fare::run_cell(spec);
    pb::start_recording();
    pb::SplitCellStats stats;
    const fare::CellResult split = pb::run_cell_split(spec, &stats);
    pb::stop_recording();
    EXPECT_EQ(canonical(split), canonical(plain)) << spec.label();
    EXPECT_GT(stats.hooks, 0u);
    EXPECT_FALSE(pb::recorded_spans().empty());
}

TEST(TracedCell, GnnCellWithWearAndOnlineRepairMatchesRunCell) {
    for (const fare::CellSpec& cell : fare::online_tolerance_plan().cells) {
        if (cell.scheme == fare::Scheme::kOnlineFARe) {
            expect_split_matches_run_cell(cell);
            return;
        }
    }
    FAIL() << "online_tolerance plan has no online FARe cell";
}

TEST(TracedCell, TransformerCellMatchesRunCell) {
    fare::CellSpec spec;
    spec.workload = fare::find_workload("transformer", "SeqCls");
    spec.scheme = fare::Scheme::kFARe;
    spec.faults = fare::FaultScenario::pre_deployment(0.03, 0.5);
    spec.hardware.prune_fraction = 0.25;
    expect_split_matches_run_cell(spec);
}

TEST(TracedCell, FaultFreeCellMatchesRunCell) {
    fare::CellSpec spec;
    spec.workload = fare::find_workload("PPI", fare::GnnKind::kGAT);
    spec.scheme = fare::Scheme::kFaultFree;
    expect_split_matches_run_cell(spec);
}

}  // namespace
