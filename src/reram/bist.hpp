// Built-in self-test (BIST) for SAF detection.
//
// Paper §II-A / §IV-A: a BIST circuit identifies the type and location of
// stuck-at faults; FARe enables it pre-deployment and at each epoch boundary
// to refresh the fault map, at ~0.13% area and timing overhead. We model the
// standard two-pass March-style test: write all-0 / read (cells reading
// non-zero are SA1), write all-max / read (cells reading below max are SA0).
// Original cell contents are restored afterwards.
//
// The march's outcome has a closed form, so bist_scan computes it instead of
// replaying it cell by cell: pass 1 reads non-zero exactly at the SA1 cells
// and pass 2 reads below max exactly at the SA0 cells, so the detected map is
// the fault map with the soft flags dropped (a march cannot tell soft from
// hard); the restore pass rewrites every saved level, so stored levels are
// unchanged; and every cell is programmed 3 times, an array-level charge of 3
// writes that writes(), max_cell_writes() and total_writes() see exactly as 3
// program() calls per cell.
#pragma once

#include "reram/crossbar.hpp"

namespace fare {

struct BistResult {
    FaultMap detected;
    /// Cell operations performed (2 writes + 2 reads per cell + restore),
    /// consumed by the timing model's overhead accounting.
    std::uint64_t cell_ops = 0;
};

/// Scan one crossbar and return the detected fault map.
/// Postcondition: the crossbar's stored contents are unchanged.
BistResult bist_scan(Crossbar& xbar);

}  // namespace fare
