// The ReRAM PIM accelerator: the crossbars of its tiles under flat,
// tile-major addressing, with fault injection, BIST scanning and region
// allocation.
//
// Weight matrices are allocated to a fixed crossbar range once (they stay
// resident across training); adjacency blocks stream through a separate range
// every mini-batch (paper Fig. 2). The accelerator tracks per-crossbar write
// counts so wear-driven post-deployment fault injection has a hook.
#pragma once

#include <cstdint>
#include <vector>

#include "reram/bist.hpp"
#include "reram/crossbar.hpp"
#include "reram/tile.hpp"

namespace fare {

class Rng;

struct AcceleratorConfig {
    TileSpec tile;
    int num_tiles = 4;
};

/// Contiguous range of flat crossbar indices reserved for one matrix.
struct CrossbarRange {
    std::size_t first = 0;
    std::size_t count = 0;
};

class Accelerator {
public:
    explicit Accelerator(const AcceleratorConfig& config = {});

    const AcceleratorConfig& config() const { return config_; }
    std::size_t num_crossbars() const { return crossbars_.size(); }
    std::size_t num_tiles() const { return static_cast<std::size_t>(config_.num_tiles); }

    /// Flat indexing across tiles: crossbar i lives in tile i / per_tile.
    Crossbar& crossbar(std::size_t flat_index);
    const Crossbar& crossbar(std::size_t flat_index) const;

    /// Reserve the next `count` unallocated crossbars. Throws ResourceError
    /// when the pool is exhausted.
    CrossbarRange allocate(std::size_t count);

    /// Crossbars not yet reserved.
    std::size_t crossbars_available() const;

    /// Inject pre-deployment faults into every crossbar
    /// (Poisson-across / uniform-within; see FaultInjectionConfig).
    void inject_pre_deployment_faults(const FaultInjectionConfig& config);

    /// Wear: add faults on top of the existing maps (post-deployment).
    /// Returns the number of faults actually added (the Poisson draws may
    /// yield zero — callers skip their BIST refresh then). `soft` places
    /// soft-error arrivals instead: stuck-ats re-formable by the online
    /// correction path (Crossbar::reform), which schemes without online
    /// correction see as ordinary permanent stuck-ats. When `touched` is
    /// non-null the flat indices of crossbars that received at least one
    /// fault are appended to it (online detection-latency bookkeeping).
    std::size_t inject_post_deployment_faults(
        double added_density, double sa1_fraction, Rng& rng, bool soft = false,
        std::vector<std::size_t>* touched = nullptr);

    /// Run BIST across all crossbars; returns one detected map per crossbar.
    std::vector<FaultMap> bist_scan_all();

    /// Ground-truth fault maps (copies) — used by tests to validate BIST.
    std::vector<FaultMap> true_fault_maps() const;

    /// Total area / peak power of the modelled chip.
    double total_area_mm2() const;
    double peak_power_w() const;

private:
    AcceleratorConfig config_;
    std::vector<Crossbar> crossbars_;  // tile-major
    std::size_t next_free_ = 0;
};

}  // namespace fare
