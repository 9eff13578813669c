// The GNN family's process-wide batch-set cache behind make_trainers: one
// set per (dataset, seed, partitioner, num_partitions, partitions_per_batch),
// shared by every trainer of that key and bit-for-bit equivalent to the
// uncached Trainer constructor; weak retention plus the most recently
// requested set; build-once under concurrent requests, failures included.
//
// The cache and its counters are process-wide, so every test uses its own
// seeds and reads the counters as deltas.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "fare/fare_trainer.hpp"
#include "models/gnn/trainer.hpp"
#include "nn/model_family.hpp"
#include "sim/registry.hpp"

namespace fare {
namespace {

const ModelFamily& gnn() { return find_model_family("gnn"); }

WorkloadSpec ppi(GnnKind kind = GnnKind::kGCN) { return find_workload("PPI", kind); }

TrainConfig ppi_config(std::uint64_t seed) {
    TrainConfig tc = ppi().train_config(seed);
    tc.epochs = 2;
    tc.record_curve = true;
    return tc;
}

/// The batch adjacency a factory's trainers read: the identity of the set.
const std::vector<BitMatrix>* batches_of(const TrainerFactory& make) {
    const auto trainer = make(nullptr);
    return &dynamic_cast<Trainer&>(*trainer).batch_adjacency();
}

/// built/reused counts since construction.
struct CountDelta {
    WorkloadArtefactCounts start = workload_artefact_counts();
    std::uint64_t built() const { return workload_artefact_counts().built - start.built; }
    std::uint64_t reused() const { return workload_artefact_counts().reused - start.reused; }
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_run(const SchemeRunResult& a, const SchemeRunResult& b) {
    const TrainResult& x = a.train;
    const TrainResult& y = b.train;
    ASSERT_EQ(x.curve.size(), y.curve.size());
    for (std::size_t e = 0; e < x.curve.size(); ++e) {
        EXPECT_EQ(x.curve[e].train_loss, y.curve[e].train_loss) << "epoch " << e;
        EXPECT_TRUE(same_bits(x.curve[e].train_accuracy, y.curve[e].train_accuracy));
        EXPECT_TRUE(same_bits(x.curve[e].val_accuracy, y.curve[e].val_accuracy));
    }
    EXPECT_TRUE(same_bits(x.test_accuracy, y.test_accuracy));
    EXPECT_TRUE(same_bits(x.test_macro_f1, y.test_macro_f1));
    EXPECT_EQ(x.partition_quality.algo, y.partition_quality.algo);
    EXPECT_EQ(x.partition_quality.edge_cut, y.partition_quality.edge_cut);
    EXPECT_TRUE(same_bits(x.partition_quality.alpha, y.partition_quality.alpha));
    EXPECT_TRUE(same_bits(x.partition_quality.replication_factor,
                          y.partition_quality.replication_factor));
    EXPECT_TRUE(same_bits(a.total_mapping_cost, b.total_mapping_cost));
    EXPECT_TRUE(same_bits(a.off_tile_block_fraction, b.off_tile_block_fraction));
    EXPECT_EQ(a.bist_scans, b.bist_scans);
}

TEST(BatchSetCacheTest, OneKeySharesOneSetAndTrainsLikeTheUncachedConstructor) {
    const TrainConfig tc = ppi_config(101);
    const CountDelta delta;
    const TrainerFactory first = gnn().make_trainers(ppi(), tc);
    const TrainerFactory second = gnn().make_trainers(ppi(), tc);
    EXPECT_EQ(batches_of(first), batches_of(second));
    EXPECT_EQ(delta.built(), 1u);
    EXPECT_EQ(delta.reused(), 1u);

    const Dataset dataset = ppi().make_dataset(tc.seed);
    const TrainerFactory uncached = [&](HardwareModel* hw) {
        return std::make_unique<Trainer>(dataset, tc, hw);
    };
    const FaultScenario faults = FaultScenario::pre_deployment(0.03, 0.5);
    const SchemeRunResult cached_run = run_scheme(second, Scheme::kFARe, tc, faults, {}, 7);
    const SchemeRunResult reference = run_scheme(uncached, Scheme::kFARe, tc, faults, {}, 7);
    EXPECT_GT(cached_run.total_mapping_cost, 0.0);
    expect_same_run(cached_run, reference);
}

TEST(BatchSetCacheTest, EveryKeyFieldSplitsTheSetAndTheModelDoesNot) {
    const TrainConfig base = ppi_config(201);
    TrainConfig seed = base;
    seed.seed = 202;
    TrainConfig partitioner = base;
    partitioner.partitioner = "ldg";
    TrainConfig partitions = base;
    partitions.num_partitions = base.num_partitions + 2;
    TrainConfig per_batch = base;
    per_batch.partitions_per_batch = base.partitions_per_batch + 1;

    // Hold every factory so no set can expire and hand its address on.
    std::vector<TrainerFactory> factories;
    for (const TrainConfig& tc : {base, seed, partitioner, partitions, per_batch})
        factories.push_back(gnn().make_trainers(ppi(), tc));
    std::vector<const std::vector<BitMatrix>*> sets;
    for (const TrainerFactory& make : factories) sets.push_back(batches_of(make));
    for (std::size_t i = 0; i < sets.size(); ++i)
        for (std::size_t j = i + 1; j < sets.size(); ++j)
            EXPECT_NE(sets[i], sets[j]) << "configs " << i << " and " << j;

    // GAT reads the same batches as GCN; only the model differs.
    TrainConfig gat = base;
    gat.kind = GnnKind::kGAT;
    const CountDelta delta;
    const TrainerFactory gat_factory = gnn().make_trainers(ppi(GnnKind::kGAT), gat);
    EXPECT_EQ(batches_of(gat_factory), sets[0]);
    EXPECT_EQ(delta.built(), 0u);
    EXPECT_EQ(delta.reused(), 1u);
}

TEST(BatchSetCacheTest, SerialRunsKeepOnlyTheLatestSet) {
    const TrainConfig a = ppi_config(301);
    const TrainConfig b = ppi_config(302);
    const CountDelta delta;
    // Dropped, then re-requested with nothing in between: still held.
    static_cast<void>(batches_of(gnn().make_trainers(ppi(), a)));
    static_cast<void>(batches_of(gnn().make_trainers(ppi(), a)));
    EXPECT_EQ(delta.built(), 1u);
    EXPECT_EQ(delta.reused(), 1u);
    // Another key built in between releases it.
    static_cast<void>(batches_of(gnn().make_trainers(ppi(), b)));
    static_cast<void>(batches_of(gnn().make_trainers(ppi(), a)));
    EXPECT_EQ(delta.built(), 3u);
    EXPECT_EQ(delta.reused(), 1u);
}

TEST(BatchSetCacheTest, ConcurrentRequestsBuildOnce) {
    const TrainConfig tc = ppi_config(401);
    constexpr std::size_t kThreads = 8;
    const CountDelta delta;
    std::vector<TrainerFactory> factories(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            while (!go.load()) std::this_thread::yield();
            factories[t] = gnn().make_trainers(ppi(), tc);
        });
    go.store(true);
    for (std::thread& thread : threads) thread.join();

    EXPECT_EQ(delta.built(), 1u);
    EXPECT_EQ(delta.reused(), kThreads - 1);
    for (const TrainerFactory& make : factories)
        EXPECT_EQ(batches_of(make), batches_of(factories[0]));
}

TEST(BatchSetCacheTest, FailedBuildThrowsToEveryCallerAndCachesNothing) {
    TrainConfig tc = ppi_config(501);
    tc.num_partitions = 2;
    tc.partitions_per_batch = 4;
    constexpr std::size_t kThreads = 4;
    const CountDelta delta;
    // Waiting callers rethrow the failed build's exception object: keep
    // every reference until the threads are joined and inspect them on
    // this thread only.
    std::vector<std::exception_ptr> errors(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            while (!go.load()) std::this_thread::yield();
            try {
                gnn().make_trainers(ppi(), tc);
            } catch (...) {
                errors[t] = std::current_exception();
            }
        });
    go.store(true);
    for (std::thread& thread : threads) thread.join();

    for (const std::exception_ptr& error : errors) {
        ASSERT_TRUE(error);
        try {
            std::rethrow_exception(error);
        } catch (const InvalidArgument& e) {
            EXPECT_NE(std::string(e.what()).find("more partitions per batch"),
                      std::string::npos)
                << e.what();
        } catch (...) {
            ADD_FAILURE() << "not an InvalidArgument";
        }
    }
    // Nothing was kept to wait on: a later request builds again and fails.
    EXPECT_THROW(gnn().make_trainers(ppi(), tc), InvalidArgument);
    EXPECT_EQ(delta.built(), 0u);
    EXPECT_EQ(delta.reused(), 0u);
}

TEST(BatchSetCacheTest, DeploymentBuildsOneSetForHostAndEdge) {
    const TrainConfig tc = ppi_config(601);
    const CountDelta delta;
    const DeploymentResult deployed =
        run_deployment(gnn().make_trainers(ppi(), tc), Scheme::kFARe, tc,
                       FaultScenario::pre_deployment(0.03, 0.5), {}, 7);
    EXPECT_GT(deployed.trained_accuracy, 0.0);
    EXPECT_EQ(delta.built(), 1u);
    EXPECT_EQ(delta.reused(), 0u);
}

}  // namespace
}  // namespace fare
