#pragma once
// Vectorized kernel tier for the batched engines (ROADMAP item 2, SIMD half).
//
// Each kernel here is a drop-in for an existing scalar loop: the Scalar tier
// IS that loop, and the AVX2 tier performs the same IEEE operations in the
// same order per lane — multiplies and adds are never contracted into FMAs
// (the AVX2 translation unit builds with -ffp-contract=off), and lanes never
// interact.  Consequence: both tiers produce bitwise-identical results for
// the same inputs, so the repo-wide determinism contracts (DESIGN.md
// §9/§13/§14) hold whichever tier runs.  tests/numeric/test_simd.cpp and the
// simd-parity CI job assert this.
//
// Dispatch: detectedTier() probes the CPU once (cached in a function-local
// static).  Every engine runs on one process-wide tier, resolveTier(): the
// detected tier unless PHLOGON_SIMD=0 forces the Scalar reference loops.
// Engines fetch an immutable function-pointer table with kernels(); no
// engine or evaluator takes a tier argument.  Since the tiers are
// bitwise-interchangeable, the tier changes wall time only; the goldens hold
// on either (the simd-parity CI job runs them both ways).  See DESIGN.md §18.

#include <cstddef>

#include "numeric/rng.hpp"

namespace phlogon::num::simd {

/// Kernel tiers, widest last.  Avx2 is the 4-wide x86 tier with gathered
/// table lookups and a vectorized SplitMix64/ziggurat fast path.  Its value
/// 2 is what bench_speedup records in its JSON row.
enum class Tier : int { Scalar = 0, Avx2 = 2 };

/// Human-readable tier name ("scalar" / "avx2").
const char* tierName(Tier t);

/// Widest tier this CPU supports (probed once, cached): Avx2, or Scalar on
/// a CPU or build without it.
Tier detectedTier();

/// PHLOGON_SIMD setting: "0"/"off" forces the Scalar tier everywhere;
/// unset, "auto", "1" or "on" run detectedTier().  Read once and cached.
enum class EnvMode { ForceOff = 0, Auto = 1 };
EnvMode envMode();

/// The process-wide tier every batched engine runs: Scalar under
/// PHLOGON_SIMD=0, detectedTier() otherwise.  The argument is ignored; it
/// stays so that existing callers keep compiling.
Tier resolveTier(bool ignored = false);

/// Function-pointer table for one tier.  All kernels share the lane
/// contract above: per-lane results are bitwise-identical across tiers.
struct Kernels {
    Tier tier = Tier::Scalar;

    /// Periodic-spline evaluation over cell-major cubic coefficients
    /// (numeric/interp.hpp PeriodicCubicSpline::coeffs(), 4 doubles per
    /// cell): out[e] = add + mul * p(t[e]), the cell located by
    /// num::periodicCell (the seam wraps to cell 0 at s = 0).
    void (*splineAffine)(const double* coeffs, std::size_t nSeg, const double* t,
                         double* out, std::size_t n, double mul, double add);

    /// One RKF45 stage combination over `lanes` SoA lanes:
    ///   yt[l] = y[l] + sum_j (h[l] * bs[j]) * ks[j][l]   (sequential adds)
    ///   ts[l] = t[l] + a * h[l]                          (skipped if !ts)
    /// Lanes with active[l] == 0 are left untouched (active may be null =
    /// all lanes active).
    void (*rkStage)(const double* y, const double* h, const double* t,
                    const double* const* ks, const double* bs, std::size_t nk,
                    double a, double* yt, double* ts, const unsigned char* active,
                    std::size_t lanes);

    /// Cash-Karp embedded 5th-order solution and scaled error norm:
    ///   y5[l]  = y + h*C1*k1 + h*C3*k3 + h*C4*k4 + h*C6*k6
    ///   err[l] = |h * ((C1-D1)k1 + (C3-D3)k3 + (C4-D4)k4 - D5 k5 + (C6-D6)k6)|
    ///            / (absTol + relTol * max(|y|, |y5|))
    /// Inactive lanes are left untouched.
    void (*rkf45Embedded)(const double* y, const double* h, const double* k1,
                          const double* k3, const double* k4, const double* k5,
                          const double* k6, double absTol, double relTol,
                          double* y5, double* err, const unsigned char* active,
                          std::size_t lanes);

    /// yt[l] = y[l] + s * k[l] (the RK4 lockstep stage shift).
    void (*axpyLanes)(const double* y, const double* k, double s, double* yt,
                      std::size_t lanes);

    /// y[l] += h/6 * (k1[l] + 2*k2[l] + 2*k3[l] + k4[l]) (RK4 combine).
    void (*rk4Combine)(double* y, const double* k1, const double* k2,
                       const double* k3, const double* k4, double h,
                       std::size_t lanes);

    /// out[l] = one standard-normal draw from lane l's SplitMix64 stream,
    /// stream- and value-identical to zig(rngs[l]) lane by lane (the AVX2
    /// tier vectorizes the ~98.5% ziggurat fast path and falls back to the
    /// scalar sampler per rejected lane, continuing that lane's stream).
    void (*normalFill)(const ZigguratNormal& zig, SplitMix64* rngs, double* out,
                       std::size_t lanes);

    /// Euler-Maruyama update: phi[l] += drift[l]*h + sigmaSqrtH*z[l].
    void (*mcUpdate)(double* phi, const double* drift, double h, double sigmaSqrtH,
                     const double* z, std::size_t lanes);

    /// out[l] = cos(2*pi*u[l]), u in cycles.  u is reduced exactly to
    /// f = u - n - k/4 in [-1/8, 1/8] (n the nearest integer, k the nearest
    /// quarter), then cos or sin of 2*pi*f comes from its Taylor polynomial
    /// in f (degrees 16 and 17), so the error does not grow with |u| the way
    /// std::cos(2*pi*u) does once 2*pi*u is rounded.  Absolute error below
    /// 1e-15 (measured: tests/numeric/test_simd.cpp); integer, half- and
    /// quarter-cycle u give exactly 1, -1 and +-0; +-inf and NaN give NaN.
    /// out may alias u.
    void (*cos2pi)(const double* u, double* out, std::size_t lanes);

    /// out[l] = tanh(x[l]) = copysign(e / (e + 2), x) with e = expm1(2|x|):
    /// a Cody-Waite reduction by ln 2 and a degree-13 Taylor polynomial of
    /// expm1.  Relative error below 1e-15 (measured: test_simd.cpp); +-0
    /// keeps its sign, |x| >= 20 and +-inf give +-1, NaN gives NaN.  out may
    /// alias x.
    void (*tanh)(const double* x, double* out, std::size_t lanes);
};

/// Cached kernel table for `tier`, clamped to detectedTier().
const Kernels& kernels(Tier tier);

}  // namespace phlogon::num::simd
