#include "reram/fault_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {

FaultMap::FaultMap(std::uint16_t rows, std::uint16_t cols)
    : rows_(rows),
      cols_(cols),
      grid_(static_cast<std::size_t>(rows) * cols, 0),
      soft_(static_cast<std::size_t>(rows) * cols, 0) {}

void FaultMap::add(std::uint16_t row, std::uint16_t col, FaultType type,
                   bool soft) {
    FARE_CHECK(row < rows_ && col < cols_, "fault position out of range");
    const std::size_t i = index(row, col);
    auto& cell = grid_[i];
    if (cell == static_cast<std::uint8_t>(FaultType::kSA0)) --num_sa0_;
    if (cell == static_cast<std::uint8_t>(FaultType::kSA1)) --num_sa1_;
    if (soft_[i] != 0) --num_soft_;
    cell = static_cast<std::uint8_t>(type);
    soft_[i] = soft ? 1 : 0;
    if (soft) ++num_soft_;
    if (type == FaultType::kSA0)
        ++num_sa0_;
    else
        ++num_sa1_;
}

void FaultMap::clear(std::uint16_t row, std::uint16_t col) {
    FARE_CHECK(row < rows_ && col < cols_, "fault position out of range");
    const std::size_t i = index(row, col);
    auto& cell = grid_[i];
    if (cell == static_cast<std::uint8_t>(FaultType::kSA0)) --num_sa0_;
    if (cell == static_cast<std::uint8_t>(FaultType::kSA1)) --num_sa1_;
    if (soft_[i] != 0) --num_soft_;
    cell = 0;
    soft_[i] = 0;
}

std::optional<FaultType> FaultMap::at(std::uint16_t row, std::uint16_t col) const {
    FARE_CHECK(row < rows_ && col < cols_, "fault position out of range");
    const auto cell = grid_[index(row, col)];
    if (cell == 0) return std::nullopt;
    return static_cast<FaultType>(cell);
}

void FaultMap::clear_soft_flags() {
    std::fill(soft_.begin(), soft_.end(), std::uint8_t{0});
    num_soft_ = 0;
}

std::vector<CellFault> FaultMap::all_faults() const {
    std::vector<CellFault> out;
    out.reserve(num_faults());
    for_each_fault([&out](std::uint16_t r, std::uint16_t c, FaultType type) {
        out.push_back({r, c, type});
    });
    return out;
}

std::vector<CellFault> FaultMap::row_faults(std::uint16_t row) const {
    FARE_CHECK(row < rows_, "row out of range");
    std::vector<CellFault> out;
    for (std::uint16_t c = 0; c < cols_; ++c) {
        const auto cell = grid_[index(row, c)];
        if (cell != 0) out.push_back({row, c, static_cast<FaultType>(cell)});
    }
    return out;
}

double FaultMap::fault_density() const {
    if (grid_.empty()) return 0.0;
    return static_cast<double>(num_faults()) / static_cast<double>(grid_.size());
}

std::vector<FaultMap> inject_faults(std::size_t num_crossbars, std::uint16_t rows,
                                    std::uint16_t cols,
                                    const FaultInjectionConfig& config) {
    FARE_CHECK(config.density >= 0.0 && config.density <= 1.0,
               "fault density must lie in [0,1]");
    FARE_CHECK(config.sa1_fraction >= 0.0 && config.sa1_fraction <= 1.0,
               "sa1_fraction must lie in [0,1]");
    Rng rng(config.seed);
    const std::size_t cells = static_cast<std::size_t>(rows) * cols;
    std::vector<FaultMap> maps;
    maps.reserve(num_crossbars);
    for (std::size_t x = 0; x < num_crossbars; ++x) {
        FaultMap map(rows, cols);
        // Clustered fault centres: the per-crossbar Poisson rate is itself
        // Gamma-distributed (mean = density * cells), so a few crossbars
        // absorb most faults while many stay near-clean — the paper's
        // "higher fault density" crossbars (§V-A, citing [6]).
        const double mean = config.density * static_cast<double>(cells);
        double rate = mean;
        if (config.cluster_shape > 0.0 && mean > 0.0)
            rate = rng.next_gamma(config.cluster_shape,
                                  mean / config.cluster_shape);
        std::size_t count = static_cast<std::size_t>(rng.next_poisson(rate));
        count = std::min(count, cells);
        std::size_t placed = 0;
        while (placed < count) {
            const auto r = static_cast<std::uint16_t>(rng.next_below(rows));
            const auto c = static_cast<std::uint16_t>(rng.next_below(cols));
            if (map.is_faulty(r, c)) continue;  // uniform without replacement
            const FaultType t =
                rng.next_bool(config.sa1_fraction) ? FaultType::kSA1 : FaultType::kSA0;
            map.add(r, c, t);
            ++placed;
        }
        maps.push_back(std::move(map));
    }
    return maps;
}

std::size_t inject_additional_faults(std::vector<FaultMap>& maps,
                                     double added_density, double sa1_fraction,
                                     Rng& rng, bool soft,
                                     std::vector<std::size_t>* touched) {
    FARE_CHECK(added_density >= 0.0 && added_density <= 1.0,
               "added density must lie in [0,1]");
    std::size_t total_placed = 0;
    for (std::size_t m = 0; m < maps.size(); ++m) {
        auto& map = maps[m];
        const std::size_t cells =
            static_cast<std::size_t>(map.rows()) * map.cols();
        const double mean = added_density * static_cast<double>(cells);
        std::size_t count = static_cast<std::size_t>(rng.next_poisson(mean));
        count = std::min(count, cells - map.num_faults());
        std::size_t placed = 0;
        std::size_t attempts = 0;
        const std::size_t max_attempts = cells * 4;
        while (placed < count && attempts++ < max_attempts) {
            const auto r = static_cast<std::uint16_t>(rng.next_below(map.rows()));
            const auto c = static_cast<std::uint16_t>(rng.next_below(map.cols()));
            if (map.is_faulty(r, c)) continue;
            const FaultType t =
                rng.next_bool(sa1_fraction) ? FaultType::kSA1 : FaultType::kSA0;
            map.add(r, c, t, soft);
            ++placed;
        }
        if (placed > 0 && touched != nullptr) touched->push_back(m);
        total_placed += placed;
    }
    return total_placed;
}

FaultMap repair_worst_columns(const FaultMap& map, std::size_t num_spares,
                              double sa1_weight) {
    // Rank columns by weighted fault count.
    std::vector<double> column_cost(map.cols(), 0.0);
    for (const CellFault& f : map.all_faults())
        column_cost[f.col] += (f.type == FaultType::kSA1) ? sa1_weight : 1.0;
    std::vector<std::uint16_t> order(map.cols());
    for (std::uint16_t c = 0; c < map.cols(); ++c) order[c] = c;
    std::stable_sort(order.begin(), order.end(), [&](std::uint16_t a, std::uint16_t b) {
        return column_cost[a] > column_cost[b];
    });
    std::vector<bool> repaired(map.cols(), false);
    for (std::size_t i = 0; i < std::min<std::size_t>(num_spares, order.size()); ++i) {
        if (column_cost[order[i]] <= 0.0) break;  // nothing left to repair
        repaired[order[i]] = true;
    }
    FaultMap out(map.rows(), map.cols());
    for (const CellFault& f : map.all_faults())
        if (!repaired[f.col]) out.add(f.row, f.col, f.type);
    return out;
}

double mean_fault_density(const std::vector<FaultMap>& maps) {
    if (maps.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& m : maps) sum += m.fault_density();
    return sum / static_cast<double>(maps.size());
}

}  // namespace fare
