#include "fare/scenario.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace fare {

namespace {

std::string num(double v) { return fmt_exact(v); }

}  // namespace

FaultScenario FaultScenario::none() { return FaultScenario{}; }

FaultScenario FaultScenario::pre_deployment(double density, double sa1_fraction) {
    FARE_CHECK(density >= 0.0 && density <= 1.0, "fault density outside [0,1]");
    FARE_CHECK(sa1_fraction >= 0.0 && sa1_fraction <= 1.0,
               "SA1 fraction outside [0,1]");
    FaultScenario s;
    s.density = density;
    s.sa1_fraction = sa1_fraction;
    s.post_sa1_fraction = sa1_fraction;
    return s;
}

FaultScenario& FaultScenario::with_post_deployment(double total_density,
                                                   double sa1) {
    FARE_CHECK(total_density >= 0.0 && total_density <= 1.0,
               "post-deployment density outside [0,1]");
    post_total_density = total_density;
    if (sa1 < 0.0) {
        post_sa1_fraction = sa1_fraction;
        post_sa1_follows_pre = true;
    } else {
        FARE_CHECK(sa1 <= 1.0, "post-deployment SA1 fraction outside [0,1]");
        post_sa1_fraction = sa1;
        post_sa1_follows_pre = false;
    }
    return *this;
}

FaultScenario& FaultScenario::with_read_noise(double sigma) {
    FARE_CHECK(sigma >= 0.0, "read-noise sigma must be non-negative");
    read_noise_sigma = sigma;
    return *this;
}

FaultScenario& FaultScenario::with_wear(const WearSpec& spec) {
    FARE_CHECK(spec.endurance_mean_writes >= 0.0,
               "endurance mean must be non-negative");
    FARE_CHECK(spec.weibull_shape > 0.0, "Weibull shape must be positive");
    FARE_CHECK(spec.hot_spot_fraction >= 0.0 && spec.hot_spot_fraction <= 1.0,
               "hot-spot fraction outside [0,1]");
    FARE_CHECK(spec.hot_spot_severity >= 1.0, "hot-spot severity must be >= 1");
    FARE_CHECK(spec.writes_per_step >= 1, "writes per step must be >= 1");
    wear = spec;
    return *this;
}

FaultScenario& FaultScenario::with_wear(double endurance_mean_writes,
                                        double hot_spot_fraction) {
    WearSpec spec = wear;
    spec.endurance_mean_writes = endurance_mean_writes;
    if (hot_spot_fraction >= 0.0) spec.hot_spot_fraction = hot_spot_fraction;
    return with_wear(spec);
}

FaultScenario& FaultScenario::with_arrival_period(std::size_t batches) {
    arrival_period_batches = batches;
    return *this;
}

FaultScenario& FaultScenario::with_soft_errors(double rate) {
    FARE_CHECK(rate >= 0.0 && rate <= 1.0,
               "soft-error rate outside [0,1]");
    soft_error_rate = rate;
    return *this;
}

FaultScenario& FaultScenario::on_weights_only() {
    faults_on_weights = true;
    faults_on_adjacency = false;
    return *this;
}

FaultScenario& FaultScenario::on_adjacency_only() {
    faults_on_weights = false;
    faults_on_adjacency = true;
    return *this;
}

bool FaultScenario::fault_free() const {
    return density == 0.0 && post_total_density == 0.0 &&
           read_noise_sigma == 0.0 && soft_error_rate == 0.0 && !wear.enabled();
}

std::string FaultScenario::key() const {
    // Inert fields are normalised away so the memo matches on behaviour, not
    // spelling: with no injected density the SA1 ratio and clustering are
    // unused, and with no wear stream its ratio/schedule are unused.
    std::ostringstream os;
    if (density > 0.0) {
        os << "d=" << num(density) << ";sa1=" << num(sa1_fraction)
           << ";cl=" << num(cluster_shape);
    } else {
        os << "d=0";
    }
    if (post_total_density > 0.0) {
        os << ";post=" << num(post_total_density) << ";pe=" << post_epochs
           << ";psa1=" << num(post_sa1_fraction);
    } else {
        os << ";post=0";
        // Worn-out cells and soft errors take their polarity from the stream
        // ratio too; sa1= already carries it when the two ratios agree.
        if (arrivals_live() && !(density > 0.0 && post_sa1_fraction == sa1_fraction))
            os << ";psa1=" << num(post_sa1_fraction);
    }
    os << ";fw=" << faults_on_weights << ";fa=" << faults_on_adjacency
       << ";noise=" << num(read_noise_sigma);
    // Wear and the arrival cadence are appended only when live, so every
    // legacy scenario keeps its pre-wear key (and kDerived seeds) unchanged.
    if (wear.enabled()) {
        os << ";wear=" << num(wear.endurance_mean_writes)
           << ",k=" << num(wear.weibull_shape)
           << ",hot=" << num(wear.hot_spot_fraction)
           << ",sev=" << num(wear.hot_spot_severity)
           << ",wps=" << wear.writes_per_step;
    }
    // Soft errors are appended only when live — legacy keys stay byte-stable.
    if (soft_error_rate > 0.0) os << ";soft=" << num(soft_error_rate);
    // The cadence only matters while some arrival source is active.
    if (arrival_period_batches > 0 && arrivals_live())
        os << ";arr=" << arrival_period_batches;
    return os.str();
}

std::string HardwareOverrides::key() const {
    std::ostringstream os;
    os << "tiles=" << num_tiles << ";tau=" << num(clip_threshold)
       << ";w0=" << num(match_weights.sa0) << ";w1=" << num(match_weights.sa1)
       << ";spare=" << num(spare_column_fraction)
       << ";pool=" << max_adjacency_pool;
    // The online policy block is appended only when enabled so every legacy
    // overrides key stays byte-stable.
    if (online.enabled()) {
        os << ";online=" << online.detect_period_batches
           << ",mw=" << online.march_window
           << ",tol=" << num(online.readback_tolerance)
           << ",sc=" << online.spare_columns
           << ",rp=" << online.reprogram_pulses;
    }
    // Partition-aware placement changes the mapping, so it must key —
    // appended only when enabled to keep legacy keys byte-stable.
    if (partition_aware_mapping) os << ";pam=1";
    // Pruning changes the programmed weights, so it must key — appended
    // only when active to keep legacy keys byte-stable.
    if (prune_fraction > 0.0) os << ";prune=" << num(prune_fraction);
    return os.str();
}

}  // namespace fare
