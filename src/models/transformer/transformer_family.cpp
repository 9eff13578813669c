// "transformer" model family: token-embedding + self-attention + MLP blocks
// trained on the same HardwareModel / crossbar / tile mapping as the GNN
// stack, with a synthetic sequence-classification workload registered beside
// the graph datasets.
#include "common/error.hpp"
#include "models/transformer/seq_dataset.hpp"
#include "models/transformer/transformer_trainer.hpp"
#include "nn/model_family.hpp"
#include "sim/registry.hpp"

namespace fare {

namespace {

SeqDataset make_workload_data(const WorkloadSpec& workload, std::uint64_t seed) {
    FARE_CHECK(workload.dataset == "SeqCls",
               "unknown transformer workload: '" + workload.dataset +
                   "' (registered: SeqCls)");
    SeqDatasetConfig config;  // scaled-down defaults, see seq_dataset.hpp
    return make_seq_cls(config, seed);
}

std::vector<WorkloadSpec> transformer_workloads() {
    WorkloadSpec w;
    w.dataset = "SeqCls";
    w.family = "transformer";
    w.variant = "Transformer";
    return {w};
}

TrainConfig transformer_train_config(const WorkloadSpec&, std::uint64_t seed) {
    TrainConfig tc;
    tc.hidden = 32;      // d_model
    tc.num_layers = 2;   // attention+MLP blocks
    tc.lr = 0.005f;      // Adam; a notch below the GNN 0.01 for stability
    tc.epochs = default_experiment_epochs();
    tc.seed = seed;
    tc.record_curve = false;
    return tc;
}

WorkloadTiming transformer_paper_scale_timing(const WorkloadSpec&) {
    // Paper-scale stand-in: a small BERT-style encoder (vocab 8192, length
    // 128, d=512, ff=1024, 4 blocks) fine-tuned for 100 epochs in batches of
    // 16 sequences.
    WorkloadTiming w;
    w.epochs = 100;
    w.hidden = 512;
    w.layers = 4;
    w.features = 512;
    w.batches_per_epoch = 64;
    w.avg_batch_nodes = 16 * 128;  // token rows streamed per batch
    w.weight_rows_total = 8192 + 128 + 4 * (4 * 512 + 512 + 1024) + 512;
    return w;
}

TrainerFactory transformer_make_trainers(const WorkloadSpec& workload,
                                        const TrainConfig& train_config) {
    auto data = std::make_shared<const SeqDataset>(
        make_workload_data(workload, train_config.seed));
    return [data, train_config](HardwareModel* hardware) {
        return std::make_unique<TransformerTrainer>(*data, train_config, hardware);
    };
}

}  // namespace

const ModelFamily kTransformerFamily = {"transformer", transformer_workloads,
                                        transformer_train_config,
                                        transformer_paper_scale_timing,
                                        transformer_make_trainers};

}  // namespace fare
