#include "reram/wear_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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

/// A cell's uniform draw from its crossbar's draw_stream().
double cell_draw(std::uint64_t stream, std::uint16_t row, std::uint16_t col) {
    return to_unit(
        splitmix64(stream ^ (static_cast<std::uint64_t>(row) << 16 | col)));
}

/// Salts of the draws: crossbar hot-spot membership, and per cell the
/// lifetime quantile u and the stuck polarity.
constexpr std::uint64_t kHotSpotSalt = 0x407507ULL;
constexpr std::uint64_t kLifetimeSalt = 0x11FE71ULL;
constexpr std::uint64_t kPolaritySalt = 0x5A1BULL;

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
        candidates_.resize(num_crossbars_);
    }
}

std::uint64_t WearModel::draw_stream(std::size_t crossbar,
                                     std::uint64_t salt) const {
    return splitmix64(splitmix64(seed_ ^ salt) ^
                      static_cast<std::uint64_t>(crossbar));
}

bool WearModel::is_hot_spot(std::size_t crossbar) const {
    if (!enabled() || spec_.hot_spot_fraction <= 0.0) return false;
    return to_unit(draw_stream(crossbar, kHotSpotSalt)) < spec_.hot_spot_fraction;
}

double WearModel::crossbar_endurance(std::size_t crossbar) const {
    if (!enabled()) return std::numeric_limits<double>::infinity();
    return is_hot_spot(crossbar)
               ? spec_.endurance_mean_writes / spec_.hot_spot_severity
               : spec_.endurance_mean_writes;
}

double WearModel::crossbar_scale(std::size_t crossbar) const {
    double scale = weibull_scale_;
    if (is_hot_spot(crossbar)) scale /= spec_.hot_spot_severity;
    return scale;
}

double WearModel::lifetime_at(double u, double scale) const {
    // Inverse Weibull CDF: L = lambda * (-ln(1 - u))^(1/k).
    return scale * std::pow(-std::log1p(-u), 1.0 / spec_.weibull_shape);
}

double WearModel::quantile_bound(double writes, double scale) const {
    // No usable CDF (infinite endurance, or a shape so small that
    // Gamma(1 + 1/k) overflowed): every cell is a candidate.
    if (!(scale > 0.0 && scale < std::numeric_limits<double>::infinity()))
        return 2.0;
    // Weibull CDF F(w) = 1 - exp(-(w / lambda)^k), taken at a slightly larger
    // w and widened again: F and lifetime_at each carry a few ulps of libm
    // error, far below the margin, so no cell whose computed lifetime is
    // <= writes can have a quantile above the bound.
    constexpr double kMargin = 1e-6;
    const double x =
        std::pow(writes * (1.0 + kMargin) / scale, spec_.weibull_shape);
    return -std::expm1(-x) * (1.0 + kMargin);
}

double WearModel::cell_lifetime(std::size_t crossbar, std::uint16_t row,
                                std::uint16_t col) const {
    if (!enabled()) return std::numeric_limits<double>::infinity();
    return lifetime_at(
        cell_draw(draw_stream(crossbar, kLifetimeSalt), row, col),
        crossbar_scale(crossbar));
}

void WearModel::relist(std::size_t crossbar, Candidates& list, double bound) {
    // One branch-free pass in row-major order. A cell ends up listed iff it
    // is listed already, or its u lies in (listed_u, bound]; cells at or
    // below the old listed_u that are not listed have worn out.
    const std::size_t cells = static_cast<std::size_t>(rows_) * cols_;
    const std::uint64_t stream = draw_stream(crossbar, kLifetimeSalt);
    list.cells.push_back(std::numeric_limits<std::uint32_t>::max());  // no cell
    relist_cells_.resize(cells);
    relist_u_.resize(cells);
    std::size_t next = 0, n = 0;  // old entries merged, entries written
    for (std::uint16_t r = 0; r < rows_; ++r)
        for (std::uint16_t c = 0; c < cols_; ++c) {
            const std::uint32_t cell = static_cast<std::uint32_t>(r) << 16 | c;
            const double u = cell_draw(stream, r, c);
            const bool listed = list.cells[next] == cell;
            next += listed;
            relist_cells_[n] = cell;
            relist_u_[n] = u;
            n += listed | ((u > list.listed_u) & (u <= bound));
        }
    const auto kept = static_cast<std::ptrdiff_t>(n);
    list.cells.assign(relist_cells_.begin(), relist_cells_.begin() + kept);
    list.u.assign(relist_u_.begin(), relist_u_.begin() + kept);
    list.listed_u = bound;
}

std::vector<WornCell> WearModel::advance(Accelerator& accelerator) {
    std::vector<WornCell> arrivals;
    if (!enabled()) return arrivals;
    FARE_CHECK(accelerator.num_crossbars() == num_crossbars_,
               "wear model bound to a different chip size");
    for (std::size_t x = 0; x < num_crossbars_; ++x) {
        Crossbar& xbar = accelerator.crossbar(x);
        const std::uint64_t max_writes = xbar.max_cell_writes();
        if (max_writes == 0) continue;
        Candidates& list = candidates_[x];
        const double scale = crossbar_scale(x);
        const double writes_bound = static_cast<double>(max_writes);
        const double u_now = quantile_bound(writes_bound, scale);
        // List ahead to 4x the bound so relisting passes stay geometric.
        if (u_now > list.listed_u)
            relist(x, list,
                   std::max(u_now, quantile_bound(4.0 * writes_bound, scale)));

        const std::uint64_t polarity = draw_stream(x, kPolaritySalt);
        const std::size_t first_new = arrivals.size();
        std::size_t kept = 0;
        for (std::size_t k = 0; k < list.cells.size(); ++k) {
            const std::uint32_t cell = list.cells[k];
            const double u = list.u[k];
            const auto r = static_cast<std::uint16_t>(cell >> 16);
            const auto c = static_cast<std::uint16_t>(cell & 0xFFFFu);
            if (u > u_now ||
                static_cast<double>(xbar.writes(r, c)) < lifetime_at(u, scale)) {
                list.cells[kept] = cell;
                list.u[kept] = u;
                ++kept;
                continue;
            }
            ++total_worn_;
            // Already stuck for another reason (manufacturing SAF or an
            // earlier uniform arrival): wearing out changes nothing the
            // sense circuitry can observe, so keep the existing type.
            if (xbar.fault_map().is_faulty(r, c)) continue;
            const FaultType type =
                cell_draw(polarity, r, c) < sa1_fraction_
                    ? FaultType::kSA1
                    : FaultType::kSA0;
            arrivals.push_back(
                WornCell{x, CellFault{r, c, type}, xbar.writes(r, c)});
        }
        list.cells.resize(kept);
        list.u.resize(kept);
        if (arrivals.size() > first_new) {
            FaultMap map = xbar.fault_map();
            for (std::size_t a = first_new; a < arrivals.size(); ++a)
                map.add(arrivals[a].fault.row, arrivals[a].fault.col,
                        arrivals[a].fault.type);
            xbar.set_fault_map(std::move(map));
        }
    }
    return arrivals;
}

}  // namespace fare
