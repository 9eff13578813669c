// Runtime-dispatched SIMD kernel layer for the training hot path.
//
// The four hot passes — quantise/dequantise (numeric/quantize.cpp), the
// compiled-overlay fix-up + clip (reram/compiled_overlay.cpp), the blocked
// GEMMs (numeric/matrix.cpp) and the sparse aggregation
// (gnn/batch_view.cpp) — all run through the function-pointer table below.
// One table exists per instruction set the build knows about (scalar always;
// AVX2 on x86-64; NEON on AArch64) and the active table is picked at
// runtime:
//
//   detected_isa()  what the CPU supports (cpuid on x86; AdvSIMD is
//                   architectural on AArch64), intersected with what the
//                   build compiled in (-DFARE_SIMD=OFF forces scalar)
//   FARE_SIMD env   auto | scalar | avx2 | neon — the one runtime selector,
//                   pins the selection for reproducibility/debugging; an
//                   ISA the host cannot run degrades to scalar so one
//                   fleet-wide setting works on heterogeneous machines
//   SimdIsaScope    in-process pin for tests and comparisons
//
// Bit-identity contract: for identical inputs, every kernel returns results
// byte-identical to the scalar table — the scalar kernels are the oracle
// (tests/simd_kernels_test.cpp fuzzes this across ragged shapes). Integer
// passes are identical by construction; float kernels vectorise across
// *output elements* only, keeping each element's accumulation chain in
// ascending-k scalar order, and never use fused multiply-add (the kernel
// translation units are compiled with -ffp-contract=off). This is what
// keeps the repo-wide serial ≡ parallel ≡ fleet byte-identity invariants
// alive with SIMD enabled.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fare::simd {

/// Instruction sets the dispatcher knows about.
enum class SimdIsa { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Lower-case display name ("scalar", "avx2", "neon").
const char* isa_name(SimdIsa isa);

/// Best ISA this process can actually execute (CPU support ∩ build
/// support). Cached after the first query.
SimdIsa detected_isa();

/// ISA the kernel table currently dispatches to: the SimdIsaScope pin if
/// one is active, else the FARE_SIMD environment selection, else
/// detected_isa(). Throws InvalidArgument on a malformed FARE_SIMD value.
SimdIsa active_isa();

/// One process-wide kernel table. All pointers are always valid; raw
/// pointers + lengths so Matrix and std::vector callers share the same entry
/// points. No alignment requirements (loads are unaligned; 64-byte-aligned
/// Matrix storage just makes them fast).
struct SimdKernels {
    /// Round trip: dst[i] = fixed_to_float(float_to_fixed(src[i])).
    void (*quantize_dequantize)(const float* src, float* dst, std::size_t n);
    /// Same with the clipping unit fused in: clamp to [-clip, clip].
    void (*quantize_dequantize_clip)(const float* src, float* dst,
                                     std::size_t n, float clip);
    /// Compiled-overlay fix-up at n sparse entries: for each entry e,
    /// dst[idx[e]] = dequant((cell_image(quant(src[idx[e]])) & and_masks[e])
    ///                       | or_masks[e]).
    /// Indices must be unique (they are: one entry per faulty weight).
    void (*overlay_fixup)(const float* src, float* dst,
                          const std::uint32_t* idx,
                          const std::uint16_t* and_masks,
                          const std::uint16_t* or_masks, std::size_t n);
    /// Same with the fused clamp to [-clip, clip].
    void (*overlay_fixup_clip)(const float* src, float* dst,
                               const std::uint32_t* idx,
                               const std::uint16_t* and_masks,
                               const std::uint16_t* or_masks, std::size_t n,
                               float clip);
    /// c[i0..i1) = a[i0..i1) * b for row-major a (M x K), b (K x N).
    void (*matmul_rows)(const float* a, const float* b, float* c,
                        std::size_t i0, std::size_t i1, std::size_t cols_a,
                        std::size_t cols_b);
    /// c[i0..i1) = (a^T)[i0..i1) * b for a (K x M), b (K x N): output row i
    /// reads column i of a.
    void (*matmul_at_b_rows)(const float* a, const float* b, float* c,
                             std::size_t i0, std::size_t i1,
                             std::size_t rows_a, std::size_t cols_a,
                             std::size_t cols_b);
    /// c[i0..i1) = a[i0..i1) * b^T for a (M x K), b (N x K).
    void (*matmul_a_bt_rows)(const float* a, const float* b, float* c,
                             std::size_t i0, std::size_t i1,
                             std::size_t cols_a, std::size_t rows_b);
    /// Forward aggregation rows [r0, r1): y[r] += vals[e] * x[cols[e]] over
    /// row r's CSR range, feat floats wide. y rows must be zero-initialised
    /// (or hold the running sum) — the kernel accumulates.
    void (*aggregate_rows)(const std::size_t* offsets,
                           const std::uint32_t* cols, const float* vals,
                           const float* x, float* y, std::size_t r0,
                           std::size_t r1, std::size_t feat);
    /// Backward aggregation rows [c0, c1) through the transpose index:
    /// y[c] += vals[t_edge[t]] * x[t_src[t]].
    void (*aggregate_t_rows)(const std::size_t* t_offsets,
                             const std::uint32_t* t_src,
                             const std::uint32_t* t_edge, const float* vals,
                             const float* x, float* y, std::size_t c0,
                             std::size_t c1, std::size_t feat);
};

/// Table for the active ISA (one relaxed atomic load on the hot path).
const SimdKernels& kernels();

/// Table for a specific ISA; kScalar is always available. Requesting a
/// table the build/CPU cannot run throws InvalidArgument — use SimdIsaScope
/// for degrade-to-scalar semantics.
const SimdKernels& kernels(SimdIsa isa);

/// RAII pin for tests: selects the ISA in scope (wins over FARE_SIMD; an
/// ISA the host cannot run degrades to scalar — results are bit-identical
/// either way) and restores the previous pin (or "no pin") on exit.
class SimdIsaScope {
public:
    explicit SimdIsaScope(SimdIsa isa);
    ~SimdIsaScope();
    SimdIsaScope(const SimdIsaScope&) = delete;
    SimdIsaScope& operator=(const SimdIsaScope&) = delete;

private:
    int previous_;  // -1 = no pin was set
};

}  // namespace fare::simd
