#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

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

/// SimdIsaScope pin; -1 = none. Wins over FARE_SIMD.
std::atomic<int> g_pin{-1};

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
    const int pin = g_pin.load(std::memory_order_acquire);
    if (pin >= 0) return static_cast<SimdIsa>(pin);
    const int env = env_isa();
    if (env >= 0) return clamp_to_supported(static_cast<SimdIsa>(env));
    return detected_isa();
}

const SimdKernels& kernels() { return kernels(active_isa()); }

const SimdKernels& kernels(SimdIsa isa) {
    FARE_CHECK(isa == SimdIsa::kScalar || isa == detected_isa(),
               "requested SIMD ISA not available in this build/CPU");
    return *table_for(isa);
}

SimdIsaScope::SimdIsaScope(SimdIsa isa)
    : previous_(g_pin.load(std::memory_order_acquire)) {
    g_pin.store(static_cast<int>(clamp_to_supported(isa)),
                std::memory_order_release);
}

SimdIsaScope::~SimdIsaScope() {
    g_pin.store(previous_, std::memory_order_release);
}

}  // namespace fare::simd
