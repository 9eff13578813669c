#include "reram/bist.hpp"

namespace fare {

namespace {

/// Each march programs every cell three times: all-0, all-max, restore.
constexpr std::uint64_t kMarchWritesPerCell = 3;
/// Those three writes plus the two read-backs.
constexpr std::uint64_t kMarchOpsPerCell = 5;

}  // namespace

BistResult bist_scan(Crossbar& xbar) {
    BistResult result;
    result.detected = xbar.fault_map();
    result.detected.clear_soft_flags();
    result.cell_ops = kMarchOpsPerCell * static_cast<std::uint64_t>(xbar.rows()) *
                      xbar.cols();
    xbar.add_uniform_writes(kMarchWritesPerCell);
    return result;
}

}  // namespace fare
