#pragma once
// Internal seam between the dispatch table (simd.cpp) and the per-tier
// kernel translation units.  Not part of the public API.

#include "numeric/simd/simd.hpp"

namespace phlogon::num::simd::detail {

const Kernels& scalarKernels();
const Kernels& avx2Kernels();  ///< scalarKernels() off x86

// Scalar kernel entry points, reused by the AVX2 tier for remainder
// lanes and mixed-active lane groups (keeping those lanes on the exact
// scalar arithmetic they would otherwise run).
void splineAffineScalar(const double* coeffs, std::size_t nSeg, const double* t,
                        double* out, std::size_t n, double mul, double add);
void rkStageScalar(const double* y, const double* h, const double* t,
                   const double* const* ks, const double* bs, std::size_t nk, double a,
                   double* yt, double* ts, const unsigned char* active, std::size_t lanes);
void rkf45EmbeddedScalar(const double* y, const double* h, const double* k1,
                         const double* k3, const double* k4, const double* k5,
                         const double* k6, double absTol, double relTol, double* y5,
                         double* err, const unsigned char* active, std::size_t lanes);
void axpyLanesScalar(const double* y, const double* k, double s, double* yt,
                     std::size_t lanes);
void rk4CombineScalar(double* y, const double* k1, const double* k2, const double* k3,
                      const double* k4, double h, std::size_t lanes);
void normalFillScalar(const ZigguratNormal& zig, SplitMix64* rngs, double* out,
                      std::size_t lanes);
void mcUpdateScalar(double* phi, const double* drift, double h, double sigmaSqrtH,
                    const double* z, std::size_t lanes);
void cos2piScalar(const double* u, double* out, std::size_t lanes);
void tanhScalar(const double* x, double* out, std::size_t lanes);

// Polynomial constants shared by both tiers, so that they evaluate the
// same numbers.  kCos2pi[j] = (-1)^j (2 pi)^(2j) / (2j)! and
// kSin2pi[j] = (-1)^j (2 pi)^(2j+1) / (2j+1)!, rounded to nearest: the
// Taylor coefficients of cos(2 pi f) and sin(2 pi f) in f.  On |f| <= 1/8
// the first dropped terms are below 1e-17.
inline constexpr int kTrigDegree = 8;  // highest power of f*f
inline constexpr double kCos2pi[kTrigDegree + 1] = {
    0x1.0000000000000p+0,  -0x1.3bd3cc9be45dep+4, 0x1.03c1f081b5ac4p+6,
    -0x1.55d3c7e3cbffap+6, 0x1.e1f506891babbp+5,  -0x1.a6d1f2a204a8cp+4,
    0x1.f9d38a3763cc3p+2,  -0x1.b6e24f44b128fp+0, 0x1.20c62c2f2d7f5p-2};
inline constexpr double kSin2pi[kTrigDegree + 1] = {
    0x1.921fb54442d18p+2,  -0x1.4abbce625be53p+5, 0x1.466bc6775aae2p+6,
    -0x1.32d2cce62bd86p+6, 0x1.50783487ee782p+5,  -0x1.e3074fde8871fp+3,
    0x1.e8f434d018d63p+1,  -0x1.6fadb9f155744p-1, 0x1.aaec32af93359p-4};

// expm1(r) = r + r^2 * sum_j kExpm1[j] r^j with kExpm1[j] = 1/(j+2)!, on
// |r| <= ln(2)/2 (relative truncation below 2e-17).  ln 2 is split
// Cody-Waite style (kLn2Hi has 32 significant bits, so k * kLn2Hi is exact
// for the k <= 58 that tanh's |x| < 20 produces).
inline constexpr int kExpm1Terms = 12;
inline constexpr double kExpm1[kExpm1Terms] = {
    0x1.0000000000000p-1,  0x1.5555555555555p-3,  0x1.5555555555555p-5,
    0x1.1111111111111p-7,  0x1.6c16c16c16c17p-10, 0x1.a01a01a01a01ap-13,
    0x1.a01a01a01a01ap-16, 0x1.71de3a556c734p-19, 0x1.27e4fb7789f5cp-22,
    0x1.ae64567f544e4p-26, 0x1.1eed8eff8d898p-29, 0x1.6124613a86d09p-33};
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;
/// tanh(x) rounds to +-1 beyond |x| = 19.1; from here on it is set to +-1.
inline constexpr double kTanhSaturate = 20.0;

}  // namespace phlogon::num::simd::detail
