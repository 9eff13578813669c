#include "reram/accelerator.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {

Accelerator::Accelerator(const AcceleratorConfig& config) : config_(config) {
    FARE_CHECK(config.num_tiles > 0, "accelerator needs at least one tile");
    FARE_CHECK(config.tile.crossbars_per_tile > 0, "tile needs at least one crossbar");
    const std::size_t count =
        num_tiles() * static_cast<std::size_t>(config.tile.crossbars_per_tile);
    crossbars_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        crossbars_.emplace_back(config.tile.crossbar_rows, config.tile.crossbar_cols);
}

Crossbar& Accelerator::crossbar(std::size_t flat_index) {
    FARE_CHECK(flat_index < num_crossbars(), "crossbar index out of range");
    return crossbars_[flat_index];
}

const Crossbar& Accelerator::crossbar(std::size_t flat_index) const {
    FARE_CHECK(flat_index < num_crossbars(), "crossbar index out of range");
    return crossbars_[flat_index];
}

CrossbarRange Accelerator::allocate(std::size_t count) {
    if (next_free_ + count > num_crossbars())
        throw ResourceError("accelerator out of crossbars: requested " +
                            std::to_string(count) + ", available " +
                            std::to_string(crossbars_available()));
    CrossbarRange range{next_free_, count};
    next_free_ += count;
    return range;
}

std::size_t Accelerator::crossbars_available() const {
    return num_crossbars() - next_free_;
}

void Accelerator::inject_pre_deployment_faults(const FaultInjectionConfig& config) {
    auto maps = inject_faults(num_crossbars(), config_.tile.crossbar_rows,
                              config_.tile.crossbar_cols, config);
    for (std::size_t i = 0; i < maps.size(); ++i)
        crossbar(i).set_fault_map(std::move(maps[i]));
}

std::size_t Accelerator::inject_post_deployment_faults(
    double added_density, double sa1_fraction, Rng& rng, bool soft,
    std::vector<std::size_t>* touched) {
    std::vector<FaultMap> maps = true_fault_maps();
    const std::size_t added = inject_additional_faults(
        maps, added_density, sa1_fraction, rng, soft, touched);
    for (std::size_t i = 0; i < maps.size(); ++i)
        crossbar(i).set_fault_map(std::move(maps[i]));
    return added;
}

std::vector<FaultMap> Accelerator::bist_scan_all() {
    std::vector<FaultMap> maps;
    maps.reserve(num_crossbars());
    for (std::size_t i = 0; i < num_crossbars(); ++i)
        maps.push_back(bist_scan(crossbar(i)).detected);
    return maps;
}

std::vector<FaultMap> Accelerator::true_fault_maps() const {
    std::vector<FaultMap> maps;
    maps.reserve(num_crossbars());
    for (std::size_t i = 0; i < num_crossbars(); ++i)
        maps.push_back(crossbar(i).fault_map());
    return maps;
}

double Accelerator::total_area_mm2() const {
    return config_.tile.area_mm2 * static_cast<double>(num_tiles());
}

double Accelerator::peak_power_w() const {
    return config_.tile.power_w * static_cast<double>(num_tiles());
}

}  // namespace fare
