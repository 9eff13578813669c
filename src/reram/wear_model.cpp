#include "reram/wear_model.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "reram/accelerator.hpp"

namespace fare {

namespace {

/// Uniform double in (0, 1) — strictly inside so log()/quantile transforms
/// are finite.
double to_unit(std::uint64_t h) {
    return (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
}

}  // namespace

WearModel::WearModel(std::size_t num_crossbars, std::uint16_t rows,
                     std::uint16_t cols, const WearSpec& spec,
                     double sa1_fraction, std::uint64_t seed)
    : spec_(spec),
      sa1_fraction_(sa1_fraction),
      seed_(seed),
      num_crossbars_(num_crossbars),
      rows_(rows),
      cols_(cols) {
    FARE_CHECK(spec.endurance_mean_writes >= 0.0,
               "endurance mean must be non-negative");
    FARE_CHECK(spec.weibull_shape > 0.0, "Weibull shape must be positive");
    FARE_CHECK(spec.hot_spot_fraction >= 0.0 && spec.hot_spot_fraction <= 1.0,
               "hot-spot fraction outside [0,1]");
    FARE_CHECK(spec.hot_spot_severity >= 1.0,
               "hot-spot severity must be >= 1 (an endurance divisor)");
    FARE_CHECK(sa1_fraction >= 0.0 && sa1_fraction <= 1.0,
               "SA1 fraction outside [0,1]");
    if (spec_.enabled()) {
        // Weibull(k, lambda) has mean lambda * Gamma(1 + 1/k); solve for the
        // scale so the configured knob really is the mean lifetime.
        weibull_scale_ = spec_.endurance_mean_writes /
                         std::tgamma(1.0 + 1.0 / spec_.weibull_shape);
        min_lifetime_.assign(num_crossbars_, -1.0);
        worn_.resize(num_crossbars_);
        lifetimes_.resize(num_crossbars_);
    }
}

double WearModel::cell_uniform(std::size_t crossbar, std::uint16_t row,
                               std::uint16_t col, std::uint64_t salt) const {
    std::uint64_t h = splitmix64(seed_ ^ salt);
    h = splitmix64(h ^ static_cast<std::uint64_t>(crossbar));
    h = splitmix64(h ^ (static_cast<std::uint64_t>(row) << 16 | col));
    return to_unit(h);
}

bool WearModel::is_hot_spot(std::size_t crossbar) const {
    if (!enabled() || spec_.hot_spot_fraction <= 0.0) return false;
    const std::uint64_t h = splitmix64(splitmix64(seed_ ^ 0x407507ULL) ^
                                       static_cast<std::uint64_t>(crossbar));
    return to_unit(h) < spec_.hot_spot_fraction;
}

double WearModel::crossbar_endurance(std::size_t crossbar) const {
    if (!enabled()) return std::numeric_limits<double>::infinity();
    return is_hot_spot(crossbar)
               ? spec_.endurance_mean_writes / spec_.hot_spot_severity
               : spec_.endurance_mean_writes;
}

double WearModel::cell_lifetime(std::size_t crossbar, std::uint16_t row,
                                std::uint16_t col) const {
    if (!enabled()) return std::numeric_limits<double>::infinity();
    // Inverse Weibull CDF: L = lambda * (-ln(1 - u))^(1/k).
    const double u = cell_uniform(crossbar, row, col, 0x11FE71ULL);
    double scale = weibull_scale_;
    if (is_hot_spot(crossbar)) scale /= spec_.hot_spot_severity;
    return scale * std::pow(-std::log1p(-u), 1.0 / spec_.weibull_shape);
}

std::vector<WornCell> WearModel::advance(Accelerator& accelerator) {
    std::vector<WornCell> arrivals;
    if (!enabled()) return arrivals;
    FARE_CHECK(accelerator.num_crossbars() == num_crossbars_,
               "wear model bound to a different chip size");
    const std::size_t cells = static_cast<std::size_t>(rows_) * cols_;
    for (std::size_t x = 0; x < num_crossbars_; ++x) {
        Crossbar& xbar = accelerator.crossbar(x);
        const std::uint64_t max_writes = xbar.max_cell_writes();
        if (max_writes == 0) continue;
        // Cheap skip: no cell of this crossbar can have expired yet.
        if (min_lifetime_[x] >= 0.0 &&
            static_cast<double>(max_writes) < min_lifetime_[x])
            continue;

        auto& worn = worn_[x];
        auto& lifetimes = lifetimes_[x];
        if (worn.empty()) {
            worn.assign(cells, false);
            lifetimes.resize(cells);
            for (std::uint16_t r = 0; r < rows_; ++r)
                for (std::uint16_t c = 0; c < cols_; ++c)
                    lifetimes[static_cast<std::size_t>(r) * cols_ + c] =
                        cell_lifetime(x, r, c);
        }
        double min_alive = std::numeric_limits<double>::infinity();
        const std::size_t first_new = arrivals.size();
        for (std::uint16_t r = 0; r < rows_; ++r) {
            for (std::uint16_t c = 0; c < cols_; ++c) {
                const std::size_t i = static_cast<std::size_t>(r) * cols_ + c;
                if (worn[i]) continue;
                const double lifetime = lifetimes[i];
                const std::uint64_t writes = xbar.writes(r, c);
                if (static_cast<double>(writes) < lifetime) {
                    if (lifetime < min_alive) min_alive = lifetime;
                    continue;
                }
                worn[i] = true;
                ++total_worn_;
                // Already stuck for another reason (manufacturing SAF or an
                // earlier uniform arrival): wearing out changes nothing the
                // sense circuitry can observe, so keep the existing type.
                if (xbar.fault_map().is_faulty(r, c)) continue;
                const FaultType type =
                    cell_uniform(x, r, c, 0x5A1BULL) < sa1_fraction_
                        ? FaultType::kSA1
                        : FaultType::kSA0;
                arrivals.push_back(WornCell{x, CellFault{r, c, type}, writes});
            }
        }
        if (arrivals.size() > first_new) {
            FaultMap map = xbar.fault_map();
            for (std::size_t a = first_new; a < arrivals.size(); ++a)
                map.add(arrivals[a].fault.row, arrivals[a].fault.col,
                        arrivals[a].fault.type);
            xbar.set_fault_map(std::move(map));
        }
        min_lifetime_[x] = min_alive;
    }
    return arrivals;
}

}  // namespace fare
