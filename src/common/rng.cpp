#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace fare {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
    // SplitMix64 expansion guarantees a non-zero state even for seed == 0.
    for (auto& s : s_) {
        s = splitmix64(seed);
        seed += 0x9E3779B97F4A7C15ULL;
    }
}

std::uint64_t Rng::next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
    FARE_CHECK(bound > 0, "next_below bound must be positive");
    // Lemire's nearly-divisionless method.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        std::uint64_t t = -bound % bound;
        while (l < t) {
            x = next_u64();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Rng::uniform(float lo, float hi) {
    return lo + static_cast<float>(next_double()) * (hi - lo);
}

double Rng::next_gaussian() {
    if (has_cached_gaussian_) {
        has_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    double u1 = 0.0;
    do {
        u1 = next_double();
    } while (u1 <= 1e-300);
    const double u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_gaussian_ = r * std::sin(theta);
    has_cached_gaussian_ = true;
    return r * std::cos(theta);
}

std::uint64_t Rng::next_poisson(double mean) {
    FARE_CHECK(mean >= 0.0, "Poisson mean must be non-negative");
    if (mean == 0.0) return 0;
    if (mean < 30.0) {
        // Knuth multiplication.
        const double limit = std::exp(-mean);
        double prod = next_double();
        std::uint64_t n = 0;
        while (prod > limit) {
            ++n;
            prod *= next_double();
        }
        return n;
    }
    // Normal approximation with continuity correction is adequate for the
    // large-mean regime used by the fault model (mean = density * cells).
    double draw = 0.0;
    do {
        draw = mean + std::sqrt(mean) * next_gaussian() + 0.5;
    } while (draw < 0.0);
    return static_cast<std::uint64_t>(draw);
}

double Rng::next_gamma(double shape, double scale) {
    FARE_CHECK(shape > 0.0 && scale > 0.0, "gamma parameters must be positive");
    if (shape < 1.0) {
        // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        const double u = std::max(next_double(), 1e-300);
        return next_gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    // Marsaglia–Tsang.
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x = 0.0, v = 0.0;
        do {
            x = next_gaussian();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = next_double();
        if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
        if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
            return d * v * scale;
    }
}

bool Rng::next_bool(double p) {
    return next_double() < p;
}

}  // namespace fare
