// The traced run's replacement for fare::run_cell: the same training cell
// rebuilt from each module's public calls — dataset, hardware injection,
// trainer construction, run(), diagnostics harvest — with a span around each
// and the chip behind a TracedHardware decorator. It must stay
// byte-identical to run_cell (tests/perfbench_test.cpp checks one cell per
// model family); this is the only harness file bound to the trainer and
// hardware APIs, so a refactor of those touches nothing else here.
#pragma once

#include <cstddef>

#include "sim/cell.hpp"

namespace perfbench {

/// Counters a split cell reads off its hardware model.
struct SplitCellStats {
    std::size_t hooks = 0;             ///< step + epoch hooks
    std::size_t refreshing_hooks = 0;  ///< hooks that moved a version stamp
    std::size_t blocks_mapped = 0;     ///< adjacency blocks placed on crossbars
    std::size_t host_blocks = 0;       ///< blocks the removal rule sent to the host
};

/// Execute a CellMode::kTrain cell of the "gnn" or "transformer" family
/// split into traced calls. Other modes and families throw
/// fare::InvalidArgument. `stats`, when given, receives the cell's counters.
fare::CellResult run_cell_split(const fare::CellSpec& spec,
                                SplitCellStats* stats = nullptr);

}  // namespace perfbench
