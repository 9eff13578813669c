// Micro-benchmarks for the transformer family's hot paths: the single-head
// attention forward (three projection GEMMs + softmax + two mix GEMMs per
// block), the full hand-derived backward, and the crossbar read-out of the
// transformer parameter set through FaultyHardware (quantise + overlay +
// fix-up — the per-refresh cost every training step pays after an optimizer
// update). All GEMMs route through the PR 8 runtime-dispatched SIMD tables,
// so this binary tracks the same kernels as bench_micro_mvm but on the
// attention-shaped (seq_len x d_model) operands.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "fare/baselines.hpp"
#include "models/transformer/seq_dataset.hpp"
#include "models/transformer/transformer_model.hpp"
#include "nn/loss.hpp"

namespace {

using namespace fare;

TransformerConfig bench_config(std::size_t d_model, std::size_t blocks) {
    TransformerConfig config;
    config.vocab_size = 64;
    config.seq_len = 16;
    config.num_classes = 4;
    config.d_model = d_model;
    config.num_blocks = blocks;
    config.ff_mult = 2;
    config.seed = 17;
    return config;
}

std::vector<std::vector<int>> bench_batch(const TransformerConfig& config,
                                          std::size_t batch) {
    SeqDatasetConfig data;
    data.vocab_size = config.vocab_size;
    data.seq_len = config.seq_len;
    data.num_classes = config.num_classes;
    const SeqDataset dataset = make_seq_cls(data, 17);
    std::vector<std::vector<int>> out;
    for (std::size_t i = 0; i < batch; ++i)
        out.push_back(dataset.tokens[i % dataset.num_sequences()]);
    return out;
}

void BM_AttentionForward(benchmark::State& state) {
    const TransformerConfig config =
        bench_config(static_cast<std::size_t>(state.range(0)), 2);
    TransformerModel model(config);
    sync_effective(model.params());
    const auto sequences = bench_batch(config, 16);
    std::vector<const std::vector<int>*> batch;
    for (const auto& seq : sequences) batch.push_back(&seq);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.forward(batch));
    }
    state.counters["d_model"] = static_cast<double>(config.d_model);
}
BENCHMARK(BM_AttentionForward)->Arg(32)->Arg(64)->Arg(128);

void BM_AttentionForwardBackward(benchmark::State& state) {
    const TransformerConfig config =
        bench_config(static_cast<std::size_t>(state.range(0)), 2);
    TransformerModel model(config);
    const std::vector<Param*> params = model.params();
    sync_effective(params);
    const auto sequences = bench_batch(config, 16);
    std::vector<const std::vector<int>*> batch;
    std::vector<int> labels;
    for (const auto& seq : sequences) batch.push_back(&seq);
    for (std::size_t i = 0; i < sequences.size(); ++i)
        labels.push_back(static_cast<int>(i) % config.num_classes);
    const std::vector<bool> mask(labels.size(), true);
    for (auto _ : state) {
        zero_grads(params);
        const Matrix logits = model.forward(batch);
        const LossResult loss = softmax_cross_entropy(logits, labels, mask);
        model.backward(loss.grad);
        benchmark::DoNotOptimize(params.back()->grad);
    }
    state.counters["d_model"] = static_cast<double>(config.d_model);
}
BENCHMARK(BM_AttentionForwardBackward)->Arg(32)->Arg(64);

void BM_TransformerWeightRefresh(benchmark::State& state) {
    // The crossbar read-out of every transformer parameter matrix under
    // FARe: quantise + compiled fault overlay + clipping fix-up per matrix.
    const TransformerConfig config =
        bench_config(static_cast<std::size_t>(state.range(0)), 2);
    TransformerModel model(config);
    FaultyHardwareConfig hw_config;
    hw_config.hardware.num_tiles = 1;
    hw_config.faults.density = 0.03;
    hw_config.faults.sa1_fraction = 0.5;
    hw_config.seed = 17;
    FaultyHardware hw(Scheme::kFARe, hw_config);
    std::vector<Matrix*> params;
    for (Param* p : model.params()) params.push_back(&p->value);
    hw.bind_params(params);
    hw.preprocess({});
    for (auto _ : state) {
        for (std::size_t i = 0; i < params.size(); ++i)
            benchmark::DoNotOptimize(hw.effective_weights(i, *params[i]));
    }
    state.counters["params"] = static_cast<double>(params.size());
}
BENCHMARK(BM_TransformerWeightRefresh)->Arg(32)->Arg(64);

}  // namespace
