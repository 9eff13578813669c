// Test oracles for the value-corruption fast path: the pre-overlay scalar
// code, one checked slice_fault lookup per cell per weight. The compiled
// overlay (reram/compiled_overlay.hpp) and the mapper's block-by-block
// adjacency writes must equal them bit for bit; bench_micro_corruption and
// bench_micro_mvm time them as the in-binary baselines. Not for hot loops.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "numeric/matrix.hpp"
#include "reram/corruption.hpp"

namespace fare {

/// Apply stuck-cell corruption to a single fixed-point value.
std::int16_t corrupt_fixed(std::int16_t q, const WeightFaultGrid& grid, std::size_t r,
                           std::size_t c);

/// Effective weight matrix the tile computes with: quantise -> slice ->
/// stuck-cell overlay -> shift-and-add -> dequantise, then optionally clamp
/// to [-clip, clip] (the 16-bit comparator + 2:1 mux clipping unit).
Matrix corrupt_weights_reference(const Matrix& w, const WeightFaultGrid& grid,
                                 std::optional<float> clip = std::nullopt);

/// Same, but with logical row r stored at physical row perm[r] (the
/// neuron-reordering baseline moves whole weight rows).
Matrix corrupt_weights_permuted_reference(const Matrix& w, const WeightFaultGrid& grid,
                                          const std::vector<std::uint16_t>& perm,
                                          std::optional<float> clip = std::nullopt);

/// Effective adjacency block after storing it on a faulty crossbar with
/// logical row r placed at physical row perm[r]: SA1 adds an edge bit, SA0
/// deletes one (paper Fig. 1b).
BinaryBlock corrupt_adjacency_block(const BinaryBlock& block, const FaultMap& map,
                                    const std::vector<std::uint16_t>& perm);

}  // namespace fare
