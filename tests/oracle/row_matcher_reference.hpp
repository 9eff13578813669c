// Test oracle for the row matcher (fare/row_matcher.hpp): the same b-Suitor
// matching on the materialised benefit graph. Every positive-benefit
// (logical, physical) edge is priced from per-row fault lists and fed to
// suitor_match in natural vertex order. best_row_permutation must equal it
// bit for bit; bench_micro_matching times both.
#pragma once

#include "fare/row_matcher.hpp"

namespace fare {

RowMatchResult best_row_permutation_reference(const BinaryBlock& block,
                                              const FaultMap& map,
                                              const RowMatchWeights& weights = {});

}  // namespace fare
