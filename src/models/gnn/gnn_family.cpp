#include "models/gnn/gnn_family.hpp"

#include <atomic>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "models/gnn/trainer.hpp"
#include "sim/registry.hpp"

namespace fare {
namespace {

using BatchSetPtr = std::shared_ptr<const GnnBatchSet>;

/// Process-wide batch sets, keyed on every input build_gnn_batches reads
/// (through the dataset it partitions): dataset name, seed, partitioner,
/// num_partitions and partitions_per_batch. The map holds weak references,
/// so a set lives while a trainer factory holds it, plus one strong
/// reference to the most recently requested set so consecutive cells of a
/// serial run reuse it. A miss drops that reference before it builds;
/// concurrent requests for one key build it once, and the waiting ones get
/// that build's set or its exception.
class BatchSetCache {
public:
    BatchSetPtr get(const WorkloadSpec& workload, const TrainConfig& config) {
        const Key key{workload.dataset, config.seed, config.partitioner,
                      config.num_partitions, config.partitions_per_batch};
        std::unique_lock<std::mutex> lock(mutex_);
        Entry& entry = entries_[key];
        if (BatchSetPtr set = entry.set.lock()) return reuse(std::move(set));
        if (entry.building.valid()) {
            const std::shared_future<BatchSetPtr> building = entry.building;
            lock.unlock();
            BatchSetPtr set = building.get();
            lock.lock();
            return reuse(std::move(set));
        }

        std::promise<BatchSetPtr> promise;
        entry.building = promise.get_future().share();
        std::erase_if(entries_, [](const auto& kv) {
            return kv.second.set.expired() && !kv.second.building.valid();
        });
        BatchSetPtr dropped = std::move(latest_);
        lock.unlock();
        dropped.reset();

        BatchSetPtr set;
        try {
            set = build_gnn_batches(workload.make_dataset(config.seed), config);
        } catch (...) {
            lock.lock();
            entries_.erase(key);
            promise.set_exception(std::current_exception());
            throw;
        }
        lock.lock();
        entries_.at(key) = Entry{set, {}};
        latest_ = set;
        ++built_;
        promise.set_value(set);
        return set;
    }

    WorkloadArtefactCounts counts() const { return {built_.load(), reused_.load()}; }

private:
    using Key = std::tuple<std::string, std::uint64_t, std::string, int, int>;
    struct Entry {
        std::weak_ptr<const GnnBatchSet> set;
        std::shared_future<BatchSetPtr> building;  ///< valid while being built
    };

    BatchSetPtr reuse(BatchSetPtr set) {
        latest_ = set;
        ++reused_;
        return set;
    }

    std::mutex mutex_;
    std::map<Key, Entry> entries_;
    BatchSetPtr latest_;
    std::atomic<std::uint64_t> built_{0};
    std::atomic<std::uint64_t> reused_{0};
};

BatchSetCache& batch_set_cache() {
    static BatchSetCache cache;
    return cache;
}

}  // namespace

WorkloadArtefactCounts workload_artefact_counts() { return batch_set_cache().counts(); }

std::vector<WorkloadSpec> GnnFamily::workloads() const { return fig5_workloads(); }

TrainConfig GnnFamily::train_config(const WorkloadSpec& workload,
                                    std::uint64_t seed) const {
    // WorkloadSpec::train_config handles the "gnn" family inline (it only
    // dispatches here for other families), so this cannot recurse.
    return workload.train_config(seed);
}

WorkloadTiming GnnFamily::paper_scale_timing(const WorkloadSpec& workload) const {
    return workload.paper_scale_timing();
}

TrainerFactory GnnFamily::make_trainers(const WorkloadSpec& workload,
                                        const TrainConfig& train_config) const {
    auto data = batch_set_cache().get(workload, train_config);
    return [data, train_config](HardwareModel* hardware) {
        return std::make_unique<Trainer>(data, train_config, hardware);
    };
}

}  // namespace fare
