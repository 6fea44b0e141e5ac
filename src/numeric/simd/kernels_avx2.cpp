// AVX2 kernel tier: 4-wide double lanes with gathered table lookups, a
// vectorized SplitMix64 + ziggurat fast path and the cos2pi/tanh
// polynomials.
//
// Bitwise contract (simd.hpp): every vector expression below performs the
// SAME IEEE operations in the SAME order as the scalar kernel it replaces —
// explicit _mm256_mul_pd/_mm256_add_pd pairs, never FMA.  This translation
// unit builds with "-mavx2 -ffp-contract=off" (src/CMakeLists.txt) so the
// compiler cannot contract those pairs either.  Remainder lanes and
// mixed-active groups run the scalar entry points.

#include "numeric/simd/kernels_internal.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)
#define PHLOGON_SIMD_AVX2 1
#endif

#if defined(PHLOGON_SIMD_AVX2)

#include <immintrin.h>

#include <cstdint>
#include <type_traits>

#include "numeric/rkf45_tableau.hpp"

namespace phlogon::num::simd::detail {

namespace {

// (~mask) & v: zero (+0.0) the lanes where mask is all-ones.
inline __m256d zeroWhere(__m256d mask, __m256d v) { return _mm256_andnot_pd(mask, v); }

// 64-bit low product per lane from 32x32 partials (AVX2 has no
// _mm256_mullo_epi64): lo(a)lo(b) + ((lo(a)hi(b) + hi(a)lo(b)) << 32).
inline __m256i mullo64(__m256i a, __m256i b) {
    const __m256i aHi = _mm256_srli_epi64(a, 32);
    const __m256i bHi = _mm256_srli_epi64(b, 32);
    const __m256i lolo = _mm256_mul_epu32(a, b);
    const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, bHi), _mm256_mul_epu32(aHi, b));
    return _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32));
}

// Exact uint64 -> double for values < 2^53: assemble the halves as doubles
// anchored at 2^52 and 2^84, then cancel the anchors.  Matches
// static_cast<double>(u) bit-for-bit on this value range (the cast is exact
// there, and every step below is exact).
inline __m256d u53ToDouble(__m256i v) {
    const __m256i lo = _mm256_or_si256(_mm256_and_si256(v, _mm256_set1_epi64x(0xffffffffll)),
                                       _mm256_set1_epi64x(0x4330000000000000ll));  // 2^52 + lo
    const __m256i hi = _mm256_or_si256(_mm256_srli_epi64(v, 32),
                                       _mm256_set1_epi64x(0x4530000000000000ll));  // 2^84 + hi*2^32
    const __m256d hiD =
        _mm256_sub_pd(_mm256_castsi256_pd(hi), _mm256_set1_pd(19342813118337666422669312.0));
    return _mm256_add_pd(hiD, _mm256_castsi256_pd(lo));  // hi*2^32 + lo, exact
}

// base[idx[k]] in lane k: GCC 12's own expansion of _mm256_i32gather_pd
// (an all-ones mask from comparing zeros), with a zeroed source register in
// place of its undefined one, which draws -Wmaybe-uninitialized at every
// call site.  With every mask bit set the source is never read.
inline __m256d gather4(const double* base, __m128i idx) {
    const __m256d zero = _mm256_setzero_pd();
    return _mm256_mask_i32gather_pd(zero, base, idx, _mm256_cmp_pd(zero, zero, _CMP_EQ_OQ), 8);
}

inline bool allActive4(const unsigned char* active, std::size_t l) {
    return !active || (active[l] && active[l + 1] && active[l + 2] && active[l + 3]);
}

void splineAffineAvx2(const double* coeffs, std::size_t nSeg, const double* t, double* out,
                      std::size_t n, double mul, double add) {
    if (nSeg == 0 || nSeg >= (std::size_t{1} << 29)) {
        // 4*i must fit the i32 gather index.
        splineAffineScalar(coeffs, nSeg, t, out, n, mul, add);
        return;
    }
    const __m256d kn = _mm256_set1_pd(static_cast<double>(nSeg));
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d vmul = _mm256_set1_pd(mul);
    const __m256d vadd = _mm256_set1_pd(add);
    std::size_t e = 0;
    for (; e + 4 <= n; e += 4) {
        const __m256d tv = _mm256_loadu_pd(t + e);
        // wrap01: w = t - floor(t), then the w >= 1 floor-rounding guard.
        __m256d w = _mm256_sub_pd(tv, _mm256_floor_pd(tv));
        w = zeroWhere(_mm256_cmp_pd(w, one, _CMP_GE_OQ), w);
        const __m256d u = _mm256_mul_pd(w, kn);
        __m256d fi = _mm256_round_pd(u, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        __m256d s = _mm256_sub_pd(u, fi);
        // Seam guard, same semantics as the scalar kernel: segment 0, s = 0.
        const __m256d seam = _mm256_cmp_pd(fi, kn, _CMP_GE_OQ);
        fi = zeroWhere(seam, fi);
        s = zeroWhere(seam, s);
        const __m128i idx = _mm_slli_epi32(_mm256_cvttpd_epi32(fi), 2);  // 4*i
        const __m256d c0 = gather4(coeffs + 0, idx);
        const __m256d c1 = gather4(coeffs + 1, idx);
        const __m256d c2 = gather4(coeffs + 2, idx);
        const __m256d c3 = gather4(coeffs + 3, idx);
        __m256d p = _mm256_add_pd(c2, _mm256_mul_pd(s, c3));
        p = _mm256_add_pd(c1, _mm256_mul_pd(s, p));
        p = _mm256_add_pd(c0, _mm256_mul_pd(s, p));
        _mm256_storeu_pd(out + e, _mm256_add_pd(vadd, _mm256_mul_pd(vmul, p)));
    }
    if (e < n) splineAffineScalar(coeffs, nSeg, t + e, out + e, n - e, mul, add);
}

void rkStageAvx2(const double* y, const double* h, const double* t, const double* const* ks,
                 const double* bs, std::size_t nk, double a, double* yt, double* ts,
                 const unsigned char* active, std::size_t lanes) {
    const __m256d va = _mm256_set1_pd(a);
    std::size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
        if (!allActive4(active, l)) {
            const double* ksOff[8];
            for (std::size_t j = 0; j < nk; ++j) ksOff[j] = ks[j] + l;
            rkStageScalar(y + l, h + l, t ? t + l : nullptr, ksOff, bs, nk, a, yt + l,
                          ts ? ts + l : nullptr, active + l, 4);
            continue;
        }
        const __m256d hv = _mm256_loadu_pd(h + l);
        __m256d v = _mm256_loadu_pd(y + l);
        for (std::size_t j = 0; j < nk; ++j) {
            const __m256d hb = _mm256_mul_pd(hv, _mm256_set1_pd(bs[j]));
            v = _mm256_add_pd(v, _mm256_mul_pd(hb, _mm256_loadu_pd(ks[j] + l)));
        }
        _mm256_storeu_pd(yt + l, v);
        if (ts)
            _mm256_storeu_pd(ts + l,
                             _mm256_add_pd(_mm256_loadu_pd(t + l), _mm256_mul_pd(va, hv)));
    }
    if (l < lanes) {
        const double* ksOff[8];
        for (std::size_t j = 0; j < nk; ++j) ksOff[j] = ks[j] + l;
        rkStageScalar(y + l, h + l, t ? t + l : nullptr, ksOff, bs, nk, a, yt + l,
                      ts ? ts + l : nullptr, active ? active + l : nullptr, lanes - l);
    }
}

void rkf45EmbeddedAvx2(const double* y, const double* h, const double* k1, const double* k3,
                       const double* k4, const double* k5, const double* k6, double absTol,
                       double relTol, double* y5, double* err, const unsigned char* active,
                       std::size_t lanes) {
    using namespace phlogon::num::cashkarp;
    const __m256d signMask = _mm256_set1_pd(-0.0);
    const __m256d vAbsTol = _mm256_set1_pd(absTol);
    const __m256d vRelTol = _mm256_set1_pd(relTol);
    std::size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
        if (!allActive4(active, l)) {
            rkf45EmbeddedScalar(y + l, h + l, k1 + l, k3 + l, k4 + l, k5 + l, k6 + l, absTol,
                                relTol, y5 + l, err + l, active + l, 4);
            continue;
        }
        const __m256d hv = _mm256_loadu_pd(h + l);
        const __m256d vy = _mm256_loadu_pd(y + l);
        const __m256d vk1 = _mm256_loadu_pd(k1 + l);
        const __m256d vk3 = _mm256_loadu_pd(k3 + l);
        const __m256d vk4 = _mm256_loadu_pd(k4 + l);
        const __m256d vk5 = _mm256_loadu_pd(k5 + l);
        const __m256d vk6 = _mm256_loadu_pd(k6 + l);
        __m256d v = vy;
        v = _mm256_add_pd(v, _mm256_mul_pd(_mm256_mul_pd(hv, _mm256_set1_pd(C1)), vk1));
        v = _mm256_add_pd(v, _mm256_mul_pd(_mm256_mul_pd(hv, _mm256_set1_pd(C3)), vk3));
        v = _mm256_add_pd(v, _mm256_mul_pd(_mm256_mul_pd(hv, _mm256_set1_pd(C4)), vk4));
        v = _mm256_add_pd(v, _mm256_mul_pd(_mm256_mul_pd(hv, _mm256_set1_pd(C6)), vk6));
        _mm256_storeu_pd(y5 + l, v);
        __m256d e = _mm256_mul_pd(_mm256_set1_pd(C1 - D1), vk1);
        e = _mm256_add_pd(e, _mm256_mul_pd(_mm256_set1_pd(C3 - D3), vk3));
        e = _mm256_add_pd(e, _mm256_mul_pd(_mm256_set1_pd(C4 - D4), vk4));
        e = _mm256_sub_pd(e, _mm256_mul_pd(_mm256_set1_pd(D5), vk5));
        e = _mm256_add_pd(e, _mm256_mul_pd(_mm256_set1_pd(C6 - D6), vk6));
        e = _mm256_mul_pd(hv, e);
        // max_pd matches std::max for the finite |.| values here (ties pick
        // the same value either way).
        const __m256d mx =
            _mm256_max_pd(_mm256_andnot_pd(signMask, vy), _mm256_andnot_pd(signMask, v));
        const __m256d sc = _mm256_add_pd(vAbsTol, _mm256_mul_pd(vRelTol, mx));
        _mm256_storeu_pd(err + l, _mm256_div_pd(_mm256_andnot_pd(signMask, e), sc));
    }
    if (l < lanes)
        rkf45EmbeddedScalar(y + l, h + l, k1 + l, k3 + l, k4 + l, k5 + l, k6 + l, absTol,
                            relTol, y5 + l, err + l, active ? active + l : nullptr, lanes - l);
}

void axpyLanesAvx2(const double* y, const double* k, double s, double* yt, std::size_t lanes) {
    const __m256d vs = _mm256_set1_pd(s);
    std::size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
        _mm256_storeu_pd(
            yt + l,
            _mm256_add_pd(_mm256_loadu_pd(y + l), _mm256_mul_pd(vs, _mm256_loadu_pd(k + l))));
    }
    if (l < lanes) axpyLanesScalar(y + l, k + l, s, yt + l, lanes - l);
}

void rk4CombineAvx2(double* y, const double* k1, const double* k2, const double* k3,
                    const double* k4, double h, std::size_t lanes) {
    const __m256d vh6 = _mm256_set1_pd(h / 6.0);
    const __m256d two = _mm256_set1_pd(2.0);
    std::size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
        __m256d v = _mm256_add_pd(_mm256_loadu_pd(k1 + l),
                                  _mm256_mul_pd(two, _mm256_loadu_pd(k2 + l)));
        v = _mm256_add_pd(v, _mm256_mul_pd(two, _mm256_loadu_pd(k3 + l)));
        v = _mm256_add_pd(v, _mm256_loadu_pd(k4 + l));
        _mm256_storeu_pd(y + l, _mm256_add_pd(_mm256_loadu_pd(y + l), _mm256_mul_pd(vh6, v)));
    }
    if (l < lanes) rk4CombineScalar(y + l, k1 + l, k2 + l, k3 + l, k4 + l, h, lanes - l);
}

void mcUpdateAvx2(double* phi, const double* drift, double h, double sigmaSqrtH,
                  const double* z, std::size_t lanes) {
    const __m256d vh = _mm256_set1_pd(h);
    const __m256d vs = _mm256_set1_pd(sigmaSqrtH);
    std::size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
        const __m256d step = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(drift + l), vh),
                                           _mm256_mul_pd(vs, _mm256_loadu_pd(z + l)));
        _mm256_storeu_pd(phi + l, _mm256_add_pd(_mm256_loadu_pd(phi + l), step));
    }
    if (l < lanes) mcUpdateScalar(phi + l, drift + l, h, sigmaSqrtH, z + l, lanes - l);
}

void normalFillAvx2(const ZigguratNormal& zig, SplitMix64* rngs, double* out,
                    std::size_t lanes) {
    // Four SplitMix64 states advance as one __m256i; the ziggurat fast
    // accept (x < x_[i+1], ~98.5% of draws) is fully vectorized, and a
    // rejected lane continues ITS OWN stream through the scalar
    // ZigguratNormal::tryDraw — so per-lane draw sequences are identical to
    // the scalar sampler, whatever mix of fast/slow paths the lanes hit.
    static_assert(sizeof(SplitMix64) == sizeof(std::uint64_t) &&
                      std::is_trivially_copyable_v<SplitMix64>,
                  "SplitMix64 must be a bare 64-bit state for the SoA batch fill");
    const double* xs = zig.layerEdges();
    std::uint64_t* st = reinterpret_cast<std::uint64_t*>(rngs);
    const __m256i inc = _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ull));
    const __m256i m1 = _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ull));
    const __m256i m2 = _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebull));
    const __m256i layerMask = _mm256_set1_epi64x(0xff);
    const __m256i signBit = _mm256_set1_epi64x(0x100);
    const __m256i dwords0246 = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    const __m256d p53 = _mm256_set1_pd(0x1.0p-53);
    std::size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
        __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(st + l));
        s = _mm256_add_epi64(s, inc);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(st + l), s);
        __m256i z = _mm256_xor_si256(s, _mm256_srli_epi64(s, 30));
        z = mullo64(z, m1);
        z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
        z = mullo64(z, m2);
        const __m256i u = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
        // Layer index i = u & 0xff, compacted to i32 gather indices.
        const __m128i idx = _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(_mm256_and_si256(u, layerMask), dwords0246));
        const __m256d xi = gather4(xs, idx);
        const __m256d xi1 = gather4(xs + 1, idx);
        // u01 = (double)(u >> 11) * 2^-53; x = u01 * x_[i].
        const __m256d u01 = _mm256_mul_pd(u53ToDouble(_mm256_srli_epi64(u, 11)), p53);
        const __m256d x = _mm256_mul_pd(u01, xi);
        // sign*x with sign = ±1.0 is an exact sign-bit flip.
        const __m256i sb = _mm256_slli_epi64(_mm256_and_si256(u, signBit), 55);
        _mm256_storeu_pd(out + l, _mm256_xor_pd(x, _mm256_castsi256_pd(sb)));
        const int fast = _mm256_movemask_pd(_mm256_cmp_pd(x, xi1, _CMP_LT_OQ));
        if (fast != 0xf) {
            alignas(32) std::uint64_t uu[4];
            _mm256_store_si256(reinterpret_cast<__m256i*>(uu), u);
            for (int q = 0; q < 4; ++q) {
                if (fast & (1 << q)) continue;
                double val;
                std::uint64_t w = uu[q];
                while (!zig.tryDraw(w, rngs[l + q], &val)) w = rngs[l + q]();
                out[l + q] = val;
            }
        }
    }
    for (; l < lanes; ++l) out[l] = zig(rngs[l]);
}

constexpr int kNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

void cos2piAvx2(const double* u, double* out, std::size_t lanes) {
    const __m256d signMask = _mm256_set1_pd(-0.0);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d minusOne = _mm256_set1_pd(-1.0);
    std::size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
        const __m256d uv = _mm256_loadu_pd(u + l);
        const __m256d r = _mm256_sub_pd(uv, _mm256_round_pd(uv, kNearest));
        const __m256d k = _mm256_round_pd(_mm256_mul_pd(_mm256_set1_pd(4.0), r), kNearest);
        const __m256d f = _mm256_sub_pd(r, _mm256_mul_pd(_mm256_set1_pd(0.25), k));
        const __m256d z = _mm256_mul_pd(f, f);
        __m256d c = _mm256_set1_pd(kCos2pi[kTrigDegree]);
        __m256d s = _mm256_set1_pd(kSin2pi[kTrigDegree]);
        for (int j = kTrigDegree - 1; j >= 0; --j) {
            c = _mm256_add_pd(_mm256_set1_pd(kCos2pi[j]), _mm256_mul_pd(z, c));
            s = _mm256_add_pd(_mm256_set1_pd(kSin2pi[j]), _mm256_mul_pd(z, s));
        }
        s = _mm256_mul_pd(f, s);
        // The scalar select, innermost arm first: -c, then s at k = -1, -s at
        // k = 1, c at k = 0 (a NaN k matches none and keeps -c).
        __m256d v = _mm256_xor_pd(c, signMask);
        v = _mm256_blendv_pd(v, s, _mm256_cmp_pd(k, minusOne, _CMP_EQ_OQ));
        v = _mm256_blendv_pd(v, _mm256_xor_pd(s, signMask), _mm256_cmp_pd(k, one, _CMP_EQ_OQ));
        v = _mm256_blendv_pd(v, c, _mm256_cmp_pd(k, zero, _CMP_EQ_OQ));
        _mm256_storeu_pd(out + l, v);
    }
    if (l < lanes) cos2piScalar(u + l, out + l, lanes - l);
}

void tanhAvx2(const double* x, double* out, std::size_t lanes) {
    const __m256d signMask = _mm256_set1_pd(-0.0);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d two = _mm256_set1_pd(2.0);
    const __m256d saturate = _mm256_set1_pd(kTanhSaturate);
    std::size_t l = 0;
    for (; l + 4 <= lanes; l += 4) {
        const __m256d xv = _mm256_loadu_pd(x + l);
        const __m256d a = _mm256_andnot_pd(signMask, xv);
        // Saturated and NaN lanes run the polynomial on 0 (k = 0 keeps the
        // exponent build in range) and are overwritten below.
        const __m256d inRange = _mm256_cmp_pd(a, saturate, _CMP_LT_OQ);
        const __m256d y = _mm256_mul_pd(two, _mm256_and_pd(inRange, a));
        const __m256d k = _mm256_round_pd(_mm256_mul_pd(y, _mm256_set1_pd(kInvLn2)), kNearest);
        const __m256d r =
            _mm256_sub_pd(_mm256_sub_pd(y, _mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi))),
                          _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)));
        __m256d q = _mm256_set1_pd(kExpm1[kExpm1Terms - 1]);
        for (int j = kExpm1Terms - 2; j >= 0; --j)
            q = _mm256_add_pd(_mm256_set1_pd(kExpm1[j]), _mm256_mul_pd(r, q));
        const __m256d p = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(r, r), q));
        // 2^k from its exponent bits (k is an integer in 0..58).
        const __m256i kq = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
        const __m256d s = _mm256_castsi256_pd(
            _mm256_slli_epi64(_mm256_add_epi64(kq, _mm256_set1_epi64x(1023)), 52));
        const __m256d e = _mm256_add_pd(_mm256_mul_pd(s, p), _mm256_sub_pd(s, one));
        __m256d t = _mm256_div_pd(e, _mm256_add_pd(e, two));
        t = _mm256_blendv_pd(t, one, _mm256_cmp_pd(a, saturate, _CMP_GE_OQ));
        t = _mm256_blendv_pd(t, a, _mm256_cmp_pd(a, a, _CMP_UNORD_Q));
        // copysign(t, x)
        _mm256_storeu_pd(out + l, _mm256_or_pd(_mm256_andnot_pd(signMask, t),
                                               _mm256_and_pd(signMask, xv)));
    }
    if (l < lanes) tanhScalar(x + l, out + l, lanes - l);
}

}  // namespace

const Kernels& avx2Kernels() {
    static const Kernels k = {Tier::Avx2,         &splineAffineAvx2, &rkStageAvx2,
                              &rkf45EmbeddedAvx2, &axpyLanesAvx2,    &rk4CombineAvx2,
                              &normalFillAvx2,    &mcUpdateAvx2,     &cos2piAvx2,
                              &tanhAvx2};
    return k;
}

}  // namespace phlogon::num::simd::detail

#else  // !PHLOGON_SIMD_AVX2

namespace phlogon::num::simd::detail {
const Kernels& avx2Kernels() { return scalarKernels(); }
}  // namespace phlogon::num::simd::detail

#endif
