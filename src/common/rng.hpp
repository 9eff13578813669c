// Deterministic random number generation for reproducible experiments.
//
// All stochastic components (graph generators, fault injection, weight init,
// batch shuffling) draw from an explicitly seeded Rng so every figure in
// EXPERIMENTS.md regenerates bit-identically.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace fare {

/// SplitMix64 step: add the golden-ratio increment to `x`, then mix. Rng's
/// seed expander and the hash behind derived seeds and per-cell wear draws
/// (inline: the wear model calls it for every cell it draws).
inline std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// 64-bit FNV-1a: a string hash that is stable across platforms.
inline std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/// xoshiro256** PRNG (Blackman & Vigna) seeded via SplitMix64.
///
/// Chosen over std::mt19937_64 because its stream is identical across
/// standard-library implementations, which keeps experiment outputs stable
/// across toolchains, and it is measurably faster for the fault-injection
/// inner loops.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /// Raw 64 random bits.
    std::uint64_t next_u64();

    /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
    std::uint64_t next_below(std::uint64_t bound);

    /// Uniform double in [0, 1).
    double next_double();

    /// Uniform float in [lo, hi).
    float uniform(float lo, float hi);

    /// Standard normal via Box–Muller (cached second variate).
    double next_gaussian();

    /// Poisson-distributed count with the given mean.
    /// Uses Knuth multiplication for small means and the PTRS transformed
    /// rejection method for large means.
    std::uint64_t next_poisson(double mean);

    /// Gamma(shape, scale) via Marsaglia–Tsang squeeze (with the boost for
    /// shape < 1). Used by the clustered fault model's Gamma–Poisson mixture.
    double next_gamma(double shape, double scale);

    /// Bernoulli trial with probability p of true.
    bool next_bool(double p);

    /// Fisher–Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(next_below(i));
            std::swap(v[i - 1], v[j]);
        }
    }

private:
    std::uint64_t s_[4];
    double cached_gaussian_ = 0.0;
    bool has_cached_gaussian_ = false;
};

}  // namespace fare
