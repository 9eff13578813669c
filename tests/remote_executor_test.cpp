// Distributed-fabric tests: a WorkerPool plus in-process run_worker()
// threads stand in for a real fleet. The load-bearing properties:
//
//   * a fleet run is byte-identical to a single-process run of the plan;
//   * a worker crashing mid-plan costs nothing — its in-flight cell is
//     re-dealt and the merged results still match byte for byte;
//   * a straggler (heartbeating but stuck) is dual-dealt past the cell
//     deadline; duplicate results resolve deterministically (first wins);
//   * a cell that keeps failing fails the plan with ResourceError instead
//     of retrying forever;
//   * with a shared secret configured, only peers holding the secret are
//     registered — a wrong or missing auth proof costs the connection;
//   * a worker started before the coordinator retries the refused
//     connection (bounded backoff) instead of exiting;
//   * an online-tolerance plan runs byte-identical over the fabric: the
//     detection/repair logs are part of the serialized cells being compared.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "sim/cell_cache.hpp"
#include "sim/remote_executor.hpp"
#include "sim/serialization.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

/// Same tiny-but-real grid the session tests use: 6 listed cells (5 unique
/// after fault-free dedup), 3 epochs each.
ExperimentPlan tiny_plan() {
    return SweepBuilder("fabric_tiny")
        .workload(find_workload("PPI", GnnKind::kGCN))
        .axis(&FaultScenario::density, {0.01, 0.05})
        .sa1_fraction(0.5)
        .schemes({Scheme::kFaultFree, Scheme::kFaultUnaware, Scheme::kFARe})
        .epochs(3)
        .build();
}

/// Serialized results with the non-deterministic bookkeeping zeroed — the
/// same normalization `fare-run --canonical` applies, so "byte-identical"
/// here means exactly what the CLI diff in scripts/fleet_smoke.sh checks.
std::string canonical(const ResultSet& results) {
    std::string out;
    for (const CellResult& cell : results.cells) {
        out += cell_result_to_json(canonicalized(cell));
        out += '\n';
    }
    return out;
}

/// The single-process reference, computed once per test binary.
const std::string& local_reference() {
    static const std::string cached = [] {
        SimSession session;
        return canonical(session.run(tiny_plan()));
    }();
    return cached;
}

/// A coordinator plus N in-process workers (threads running the same
/// run_worker() loop fare-worker wraps). Tear-down hangs up the pool, which
/// ends every worker loop cleanly.
struct Fleet {
    std::unique_ptr<WorkerPool> pool;
    std::vector<std::thread> workers;

    Fleet(FabricConfig config, const std::vector<WorkerOptions>& options) {
        Expected<std::unique_ptr<WorkerPool>> listening =
            WorkerPool::listen("127.0.0.1", 0, config);
        EXPECT_TRUE(listening.ok()) << listening.error();
        pool = std::move(listening).value();
        for (const WorkerOptions& o : options)
            workers.emplace_back(
                [port = pool->port(), o] { run_worker("127.0.0.1", port, o); });
        EXPECT_TRUE(pool->wait_for_workers(options.size(), 10000));
    }

    ~Fleet() {
        pool.reset();  // coordinator hangs up -> run_worker() returns 0
        for (std::thread& t : workers) t.join();
    }

    ResultSet run(const ExperimentPlan& plan) {
        SimSession session({}, std::make_unique<RemoteExecutor>(*pool),
                           nullptr);
        return session.run(plan);
    }
};

TEST(RemoteExecutorTest, FleetMatchesSingleProcessByteForByte) {
    FabricConfig config;
    config.heartbeat_timeout_ms = 5000;
    Fleet fleet(config, {WorkerOptions{}, WorkerOptions{}});
    EXPECT_EQ(fleet.pool->connected(), 2u);

    RemoteExecutor executor(*fleet.pool);
    EXPECT_EQ(executor.width(), 2u);

    const ResultSet results = fleet.run(tiny_plan());
    ASSERT_EQ(results.size(), tiny_plan().size());
    EXPECT_EQ(canonical(results), local_reference());
}

TEST(RemoteExecutorTest, WorkerCrashMidPlanIsRedealt) {
    FabricConfig config;
    config.heartbeat_timeout_ms = 5000;
    config.retry_backoff_ms = 50;
    WorkerOptions crasher;
    crasher.quit_after = 1;  // completes one cell, drops on the next assign
    Fleet fleet(config, {crasher, WorkerOptions{}});

    const ResultSet results = fleet.run(tiny_plan());
    EXPECT_EQ(canonical(results), local_reference());

    // The dead worker is eventually reaped from the live table.
    for (int i = 0; i < 100 && fleet.pool->connected() > 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(fleet.pool->connected(), 1u);
}

TEST(RemoteExecutorTest, StragglerIsDualDealtAndFirstResultWins) {
    FabricConfig config;
    config.heartbeat_timeout_ms = 10000;  // heartbeats keep the hung worker
    config.cell_deadline_ms = 300;        // "alive"; the deadline re-deals
    config.retry_backoff_ms = 50;
    WorkerOptions straggler;
    straggler.hang_after = 1;  // swallows its second assign, keeps beating
    straggler.heartbeat_interval_ms = 100;
    Fleet fleet(config, {straggler, WorkerOptions{}});

    // The plan completes despite one worker sitting on a cell forever, and
    // the duplicate-dealt cell resolves to the same bytes (cells are pure
    // functions of the spec, so whichever copy lands first is identical).
    const ResultSet results = fleet.run(tiny_plan());
    EXPECT_EQ(canonical(results), local_reference());
    EXPECT_EQ(fleet.pool->connected(), 2u);  // straggler was never declared dead
}

TEST(RemoteExecutorTest, PoisonCellFailsFastWithResourceError) {
    FabricConfig config;
    config.heartbeat_timeout_ms = 5000;
    config.max_attempts = 2;
    config.retry_backoff_ms = 10;
    Fleet fleet(config, {WorkerOptions{}});

    // A density poked past the builder's validation decodes fine but makes
    // run_cell() throw on the worker (its range check names the field); the
    // worker reports cell_error, the coordinator re-deals, and after
    // max_attempts the plan fails instead of spinning forever.
    ExperimentPlan plan;
    plan.name = "poison";
    CellSpec bad;
    bad.workload = find_workload("PPI", GnnKind::kGCN);
    bad.scheme = Scheme::kFaultUnaware;
    bad.faults = FaultScenario::pre_deployment(0.01, 0.5);
    bad.faults.density = 5.0;
    bad.epochs = 1;
    plan.cells.push_back(bad);

    try {
        fleet.run(plan);
        FAIL() << "poison plan should have thrown";
    } catch (const ResourceError& e) {
        EXPECT_NE(std::string(e.what()).find("attempt"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("field 'density'"), std::string::npos)
            << e.what();
    }
    // The pool survives a failed plan: the worker is still connected and a
    // follow-up plan runs normally (the serve daemon relies on this).
    EXPECT_EQ(fleet.pool->connected(), 1u);
    const ResultSet results = fleet.run(tiny_plan());
    EXPECT_EQ(canonical(results), local_reference());
}

TEST(RemoteExecutorTest, WaitForWorkersTimesOutWithoutWorkers) {
    Fleet fleet(FabricConfig{}, {});
    EXPECT_EQ(fleet.pool->connected(), 0u);
    EXPECT_FALSE(fleet.pool->wait_for_workers(1, 100));
}

TEST(RemoteExecutorTest, SharedSecretFleetRunsPlan) {
    FabricConfig config;
    config.heartbeat_timeout_ms = 5000;
    config.secret = "tiger";
    WorkerOptions with_secret;
    with_secret.secret = "tiger";
    Fleet fleet(config, {with_secret, with_secret});
    EXPECT_EQ(fleet.pool->connected(), 2u);

    const ResultSet results = fleet.run(tiny_plan());
    EXPECT_EQ(canonical(results), local_reference());
}

TEST(RemoteExecutorTest, WrongOrMissingSecretIsRefused) {
    FabricConfig config;
    config.secret = "tiger";
    Expected<std::unique_ptr<WorkerPool>> listening =
        WorkerPool::listen("127.0.0.1", 0, config);
    ASSERT_TRUE(listening.ok()) << listening.error();
    std::unique_ptr<WorkerPool> pool = std::move(listening).value();

    // Wrong secret: the proof doesn't match the challenge — the coordinator
    // drops the connection and the worker sees a clean end-of-stream.
    WorkerOptions wrong;
    wrong.secret = "lion";
    std::thread w1(
        [port = pool->port(), wrong] { run_worker("127.0.0.1", port, wrong); });
    // Missing secret: the worker fails fast client-side with a clear error
    // (the welcome carries a challenge it cannot answer).
    std::thread w2(
        [port = pool->port()] { run_worker("127.0.0.1", port, {}); });
    w1.join();
    w2.join();
    EXPECT_FALSE(pool->wait_for_workers(1, 200));
    EXPECT_EQ(pool->connected(), 0u);
}

TEST(RemoteExecutorTest, WorkerRetriesUntilCoordinatorAppears) {
    // Reserve an ephemeral port by briefly binding a pool, then releasing
    // it; the worker starts first and retries the refused connection until
    // the real coordinator binds the same port.
    std::uint16_t port = 0;
    {
        Expected<std::unique_ptr<WorkerPool>> probe =
            WorkerPool::listen("127.0.0.1", 0, FabricConfig{});
        ASSERT_TRUE(probe.ok()) << probe.error();
        port = probe.value()->port();
    }

    WorkerOptions options;
    options.connect_retry_ms = 10000;
    std::thread worker(
        [port, options] { run_worker("127.0.0.1", port, options); });
    // Let the worker burn a few refused attempts before the port exists.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    Expected<std::unique_ptr<WorkerPool>> listening =
        WorkerPool::listen("127.0.0.1", port, FabricConfig{});
    ASSERT_TRUE(listening.ok()) << listening.error();
    std::unique_ptr<WorkerPool> pool = std::move(listening).value();
    EXPECT_TRUE(pool->wait_for_workers(1, 10000));
    pool.reset();  // hang up -> worker loop ends
    worker.join();
}

/// The online-tolerance plan the online_tolerance_test runs through the
/// Inline and Pool executors — here it crosses the wire, so the serialized
/// detection/repair logs (schema v3 `online` block) are part of the bytes
/// being compared.
ExperimentPlan online_plan() {
    FaultScenario faults = FaultScenario::pre_deployment(0.01, 0.5);
    faults.with_wear(40e3, 0.25).with_arrival_period(2).with_soft_errors(0.003);
    HardwareOverrides hw;
    hw.online.detect_period_batches = 2;
    hw.online.march_window = 8;
    hw.online.spare_columns = 2;
    hw.online.readback_tolerance = 0.05;
    return SweepBuilder("online_fabric")
        .workload(find_workload("PPI", GnnKind::kGCN))
        .scenario(faults)
        .hardware(hw)
        .schemes({Scheme::kOnlineFARe, Scheme::kOnlineNaive})
        .epochs(2)
        .build();
}

TEST(RemoteExecutorTest, OnlinePlanFleetMatchesSingleProcess) {
    FabricConfig config;
    config.heartbeat_timeout_ms = 10000;
    Fleet fleet(config, {WorkerOptions{}, WorkerOptions{}});

    const ResultSet remote = fleet.run(online_plan());
    SimSession local;
    const ResultSet reference = local.run(online_plan());
    ASSERT_EQ(remote.size(), reference.size());
    EXPECT_EQ(canonical(remote), canonical(reference));

    // The compared bytes carry real online costs, not zeroed stats.
    for (const CellResult& cell : reference) {
        EXPECT_GT(cell.run.online.detection_rounds, 0u) << cell.spec.label();
        EXPECT_GT(cell.run.online.repair_writes, 0u) << cell.spec.label();
    }
}

}  // namespace
}  // namespace fare
