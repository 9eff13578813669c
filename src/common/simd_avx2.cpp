// AVX2 kernel table. This translation unit is the only one compiled with
// -mavx2 (plus -ffp-contract=off — no FMA contraction, see simd.hpp's
// bit-identity contract); it is safe to link into any x86-64 binary because
// nothing here executes unless runtime detection picked the table.
//
// Integer pipeline notes (all exactly bit-identical to the scalar oracle in
// simd_scalar.hpp):
//  * float_to_fixed's nearbyint + symmetric saturation becomes
//    clamp-to-[-32767, 32767] then _mm256_cvtps_epi32 — the cvt honours the
//    same MXCSR round-to-nearest-even mode nearbyint uses, and clamping
//    before rounding selects the identical saturated value for every
//    out-of-range input (the formats agree at the boundary because 32767.0f
//    is exactly representable);
//  * fixed_to_float's /256 becomes a multiply by the exact power of two
//    1/256, which is error-free;
//  * the sign-magnitude cell image and its inverse are the usual
//    xor/subtract |q| tricks — q is pre-clamped so INT_MIN never appears.
#include "common/simd.hpp"

#if defined(__AVX2__) && !defined(FARE_SIMD_DISABLED)

#include <immintrin.h>

#include "common/simd_float_kernels.hpp"
#include "common/simd_scalar.hpp"

namespace fare::simd {
namespace {

const __m256 kScale = _mm256_set1_ps(256.0f);
const __m256 kInvScale = _mm256_set1_ps(1.0f / 256.0f);
const __m256 kLimitHi = _mm256_set1_ps(32767.0f);
const __m256 kLimitLo = _mm256_set1_ps(-32767.0f);

/// Eight floats -> eight saturated Q8.8 values in int32 lanes.
inline __m256i quantize8(__m256 v) {
    const __m256 clamped = _mm256_min_ps(
        _mm256_max_ps(_mm256_mul_ps(v, kScale), kLimitLo), kLimitHi);
    return _mm256_cvtps_epi32(clamped);
}

void avx2_quantize_dequantize(const float* src, float* dst, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i q = quantize8(_mm256_loadu_ps(src + i));
        _mm256_storeu_ps(dst + i,
                         _mm256_mul_ps(_mm256_cvtepi32_ps(q), kInvScale));
    }
    if (i < n) scalar::quantize_dequantize(src + i, dst + i, n - i);
}

void avx2_quantize_dequantize_clip(const float* src, float* dst, std::size_t n,
                                   float clip) {
    const __m256 hi = _mm256_set1_ps(clip), lo = _mm256_set1_ps(-clip);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i q = quantize8(_mm256_loadu_ps(src + i));
        const __m256 d = _mm256_mul_ps(_mm256_cvtepi32_ps(q), kInvScale);
        _mm256_storeu_ps(dst + i, _mm256_min_ps(_mm256_max_ps(d, lo), hi));
    }
    if (i < n) scalar::quantize_dequantize_clip(src + i, dst + i, n - i, clip);
}

/// Eight sparse fix-up entries: gather the weights, run the quantise ->
/// mask -> dequantise pipeline in int32 lanes, then store back through the
/// index list (AVX2 has no scatter; entries are unique so the scalar
/// write-back cannot conflict).
template <bool kClip>
inline void fixup8(const float* src, float* dst, const std::uint32_t* idx,
                   const std::uint16_t* and_masks,
                   const std::uint16_t* or_masks, std::size_t e, __m256 lo,
                   __m256 hi) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + e));
    const __m256i q = quantize8(_mm256_i32gather_ps(src, vidx, 4));
    // Sign-magnitude image: bit 15 = sign, bits 14..0 = |q|.
    const __m256i sign = _mm256_srai_epi32(q, 31);
    const __m256i mag = _mm256_sub_epi32(_mm256_xor_si256(q, sign), sign);
    const __m256i image = _mm256_or_si256(
        mag, _mm256_and_si256(sign, _mm256_set1_epi32(0x8000)));
    const __m256i andm = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(and_masks + e)));
    const __m256i orm = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(or_masks + e)));
    const __m256i fixed_img =
        _mm256_or_si256(_mm256_and_si256(image, andm), orm);
    // Back to signed Q8.8: negate the magnitude where bit 15 survived.
    const __m256i fixed_mag =
        _mm256_and_si256(fixed_img, _mm256_set1_epi32(0x7FFF));
    const __m256i neg =
        _mm256_srai_epi32(_mm256_slli_epi32(fixed_img, 16), 31);
    const __m256i fixed_q =
        _mm256_sub_epi32(_mm256_xor_si256(fixed_mag, neg), neg);
    __m256 out = _mm256_mul_ps(_mm256_cvtepi32_ps(fixed_q), kInvScale);
    if constexpr (kClip) out = _mm256_min_ps(_mm256_max_ps(out, lo), hi);
    alignas(32) float buf[8];
    _mm256_store_ps(buf, out);
    for (int l = 0; l < 8; ++l) dst[idx[e + static_cast<std::size_t>(l)]] = buf[l];
}

void avx2_overlay_fixup(const float* src, float* dst, const std::uint32_t* idx,
                        const std::uint16_t* and_masks,
                        const std::uint16_t* or_masks, std::size_t n) {
    const __m256 none = _mm256_setzero_ps();
    std::size_t e = 0;
    for (; e + 8 <= n; e += 8)
        fixup8<false>(src, dst, idx, and_masks, or_masks, e, none, none);
    if (e < n)
        scalar::overlay_fixup(src, dst, idx + e, and_masks + e, or_masks + e,
                              n - e);
}

void avx2_overlay_fixup_clip(const float* src, float* dst,
                             const std::uint32_t* idx,
                             const std::uint16_t* and_masks,
                             const std::uint16_t* or_masks, std::size_t n,
                             float clip) {
    const __m256 hi = _mm256_set1_ps(clip), lo = _mm256_set1_ps(-clip);
    std::size_t e = 0;
    for (; e + 8 <= n; e += 8)
        fixup8<true>(src, dst, idx, and_masks, or_masks, e, lo, hi);
    if (e < n)
        scalar::overlay_fixup_clip(src, dst, idx + e, and_masks + e,
                                   or_masks + e, n - e, clip);
}

/// Lane abstraction feeding the shared templated float kernels.
struct VecAvx2 {
    static constexpr std::size_t kWidth = 8;
    using Reg = __m256;
    static Reg load(const float* p) { return _mm256_loadu_ps(p); }
    static void store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
    static Reg broadcast(float v) { return _mm256_set1_ps(v); }
    static Reg zero() { return _mm256_setzero_ps(); }
    static Reg mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
    static Reg add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
};

const SimdKernels kAvx2Table = {
    &avx2_quantize_dequantize,
    &avx2_quantize_dequantize_clip,
    &avx2_overlay_fixup,
    &avx2_overlay_fixup_clip,
    &vec::matmul_rows<VecAvx2>,
    &vec::matmul_at_b_rows<VecAvx2>,
    &vec::matmul_a_bt_rows<VecAvx2>,
    &vec::aggregate_rows<VecAvx2>,
    &vec::aggregate_t_rows<VecAvx2>,
};

}  // namespace

const SimdKernels* avx2_kernels() { return &kAvx2Table; }

}  // namespace fare::simd

#else  // !(__AVX2__ && SIMD enabled)

namespace fare::simd {
const SimdKernels* avx2_kernels() { return nullptr; }
}  // namespace fare::simd

#endif
