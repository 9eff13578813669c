#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>

#include "common/error.hpp"
#include "common/simd_scalar.hpp"

namespace fare::simd {

// Defined in simd_avx2.cpp / simd_neon.cpp; each returns nullptr when the
// build does not carry that ISA (wrong architecture or -DFARE_SIMD=OFF), so
// this TU never references intrinsics and links everywhere.
const SimdKernels* avx2_kernels();
const SimdKernels* neon_kernels();

namespace {

constexpr SimdKernels kScalarKernels = {
    &scalar::quantize_dequantize, &scalar::quantize_dequantize_clip,
    &scalar::overlay_fixup,       &scalar::overlay_fixup_clip,
    &scalar::matmul_rows,         &scalar::matmul_at_b_rows,
    &scalar::matmul_a_bt_rows,    &scalar::aggregate_rows,
    &scalar::aggregate_t_rows,
};

const SimdKernels* table_for(SimdIsa isa) {
    switch (isa) {
        case SimdIsa::kAvx2: return avx2_kernels();
        case SimdIsa::kNeon: return neon_kernels();
        case SimdIsa::kScalar: break;
    }
    return &kScalarKernels;
}

/// FARE_SIMD environment selection, parsed once. nullopt-like -1 = "auto".
int env_isa() {
    static const int resolved = [] {
        const char* env = std::getenv("FARE_SIMD");
        if (env == nullptr || *env == '\0') return -1;
        const std::string mode(env);
        if (mode == "auto") return -1;
        if (mode == "scalar") return static_cast<int>(SimdIsa::kScalar);
        if (mode == "avx2") return static_cast<int>(SimdIsa::kAvx2);
        if (mode == "neon") return static_cast<int>(SimdIsa::kNeon);
        throw InvalidArgument("FARE_SIMD must be auto|scalar|avx2|neon, got '" +
                              mode + "'");
    }();
    return resolved;
}

/// Programmatic override; -1 = none. Wins over FARE_SIMD.
std::atomic<int> g_override{-1};

/// Degrade an ISA request the host cannot execute to scalar: results are
/// bit-identical by contract, so a fleet-wide FARE_SIMD=neon simply runs
/// scalar on its x86 nodes. detected_isa() is already build ∩ CPU, and each
/// architecture carries at most one vector table.
SimdIsa clamp_to_supported(SimdIsa isa) {
    return isa == detected_isa() ? isa : SimdIsa::kScalar;
}

}  // namespace

const char* isa_name(SimdIsa isa) {
    switch (isa) {
        case SimdIsa::kAvx2: return "avx2";
        case SimdIsa::kNeon: return "neon";
        case SimdIsa::kScalar: break;
    }
    return "scalar";
}

SimdIsa detected_isa() {
#if defined(FARE_SIMD_DISABLED)
    return SimdIsa::kScalar;
#else
    static const SimdIsa detected = [] {
#if defined(__x86_64__) || defined(_M_X64)
        if (avx2_kernels() != nullptr && __builtin_cpu_supports("avx2"))
            return SimdIsa::kAvx2;
#elif defined(__aarch64__)
        // AdvSIMD is architectural on AArch64 — no HWCAP probe needed.
        if (neon_kernels() != nullptr) return SimdIsa::kNeon;
#endif
        return SimdIsa::kScalar;
    }();
    return detected;
#endif
}

SimdIsa active_isa() {
    const int override_isa = g_override.load(std::memory_order_acquire);
    if (override_isa >= 0) return static_cast<SimdIsa>(override_isa);
    const int env = env_isa();
    if (env >= 0) return clamp_to_supported(static_cast<SimdIsa>(env));
    return detected_isa();
}

SimdIsa set_isa(SimdIsa isa) {
    const SimdIsa effective = clamp_to_supported(isa);
    g_override.store(static_cast<int>(effective), std::memory_order_release);
    return effective;
}

SimdIsa set_isa_mode(const std::string& mode) {
    if (mode == "auto") {
        g_override.store(-1, std::memory_order_release);
        return active_isa();
    }
    if (mode == "scalar") return set_isa(SimdIsa::kScalar);
    if (mode == "avx2") return set_isa(SimdIsa::kAvx2);
    if (mode == "neon") return set_isa(SimdIsa::kNeon);
    throw InvalidArgument("SIMD mode must be auto|scalar|avx2|neon, got '" +
                          mode + "'");
}

const SimdKernels& kernels() { return kernels(active_isa()); }

const SimdKernels& kernels(SimdIsa isa) {
    FARE_CHECK(isa == SimdIsa::kScalar || isa == detected_isa(),
               "requested SIMD ISA not available in this build/CPU");
    return *table_for(isa);
}

SimdIsaScope::SimdIsaScope(SimdIsa isa)
    : previous_(g_override.load(std::memory_order_acquire)) {
    set_isa(isa);
}

SimdIsaScope::~SimdIsaScope() {
    g_override.store(previous_, std::memory_order_release);
}

}  // namespace fare::simd
