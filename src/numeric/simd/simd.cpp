#include "numeric/simd/kernels_internal.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "numeric/interp.hpp"
#include "numeric/rkf45_tableau.hpp"

namespace phlogon::num::simd {

const char* tierName(Tier t) {
    switch (t) {
        case Tier::Avx2: return "avx2";
        case Tier::Portable: return "portable";
        default: return "scalar";
    }
}

Tier detectedTier() {
    static const Tier tier = [] {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
        if (__builtin_cpu_supports("avx2")) return Tier::Avx2;
#endif
        // Portable is always "supported": its table vectorizes what the
        // toolchain allows and aliases the scalar kernels for the rest.
        return Tier::Portable;
    }();
    return tier;
}

EnvMode envMode() {
    static const EnvMode mode = [] {
        const char* v = std::getenv("PHLOGON_SIMD");
        if (!v || !*v || std::strcmp(v, "auto") == 0 || std::strcmp(v, "1") == 0 ||
            std::strcmp(v, "on") == 0)
            return EnvMode::Auto;
        if (std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0) return EnvMode::ForceOff;
        // A typo silently changing which numeric tier runs would be a
        // debugging trap (same policy as PHLOGON_CACHE_MAX_MB parsing).
        std::fprintf(stderr,
                     "phlogon: ignoring unrecognized PHLOGON_SIMD='%s' (use 0|1|auto)\n", v);
        return EnvMode::Auto;
    }();
    return mode;
}

Tier resolveTier(bool) {
    return envMode() == EnvMode::ForceOff ? Tier::Scalar : detectedTier();
}

const Kernels& kernels(Tier tier) {
    if (static_cast<int>(tier) > static_cast<int>(detectedTier())) tier = detectedTier();
    switch (tier) {
        case Tier::Avx2: return detail::avx2Kernels();
        case Tier::Portable: return detail::portableKernels();
        default: return detail::scalarKernels();
    }
}

namespace detail {

void splineAffineScalar(const double* coeffs, std::size_t nSeg, const double* t,
                        double* out, std::size_t n, double mul, double add) {
    const double kn = static_cast<double>(nSeg);
    for (std::size_t e = 0; e < n; ++e) {
        const double u = wrap01(t[e]) * kn;
        std::size_t i = static_cast<std::size_t>(u);
        double s = u - static_cast<double>(i);
        if (i >= nSeg) {
            // Seam guard: wrap to segment 0 at its left knot, where the
            // value is exactly the sample x_[0] — matching how
            // PeriodicCubicSpline's i % n wraps the u == n corner.
            i = 0;
            s = 0.0;
        }
        const double* c = &coeffs[4 * i];
        out[e] = add + mul * (c[0] + s * (c[1] + s * (c[2] + s * c[3])));
    }
}

void rkStageScalar(const double* y, const double* h, const double* t,
                   const double* const* ks, const double* bs, std::size_t nk, double a,
                   double* yt, double* ts, const unsigned char* active, std::size_t lanes) {
    for (std::size_t l = 0; l < lanes; ++l) {
        if (active && !active[l]) continue;
        const double hl = h[l];
        double v = y[l];
        for (std::size_t j = 0; j < nk; ++j) v += hl * bs[j] * ks[j][l];
        yt[l] = v;
        if (ts) ts[l] = t[l] + a * hl;
    }
}

void rkf45EmbeddedScalar(const double* y, const double* h, const double* k1,
                         const double* k3, const double* k4, const double* k5,
                         const double* k6, double absTol, double relTol, double* y5,
                         double* err, const unsigned char* active, std::size_t lanes) {
    using namespace phlogon::num::cashkarp;
    for (std::size_t l = 0; l < lanes; ++l) {
        if (active && !active[l]) continue;
        const double hl = h[l];
        double v = y[l];
        v += hl * C1 * k1[l];
        v += hl * C3 * k3[l];
        v += hl * C4 * k4[l];
        v += hl * C6 * k6[l];
        y5[l] = v;
        const double e = hl * ((C1 - D1) * k1[l] + (C3 - D3) * k3[l] + (C4 - D4) * k4[l] -
                               D5 * k5[l] + (C6 - D6) * k6[l]);
        const double sc = absTol + relTol * std::max(std::abs(y[l]), std::abs(v));
        err[l] = std::abs(e) / sc;
    }
}

void axpyLanesScalar(const double* y, const double* k, double s, double* yt,
                     std::size_t lanes) {
    for (std::size_t l = 0; l < lanes; ++l) yt[l] = y[l] + s * k[l];
}

void rk4CombineScalar(double* y, const double* k1, const double* k2, const double* k3,
                      const double* k4, double h, std::size_t lanes) {
    for (std::size_t l = 0; l < lanes; ++l)
        y[l] += h / 6.0 * (k1[l] + 2.0 * k2[l] + 2.0 * k3[l] + k4[l]);
}

void normalFillScalar(const ZigguratNormal& zig, SplitMix64* rngs, double* out,
                      std::size_t lanes) {
    for (std::size_t l = 0; l < lanes; ++l) out[l] = zig(rngs[l]);
}

void mcUpdateScalar(double* phi, const double* drift, double h, double sigmaSqrtH,
                    const double* z, std::size_t lanes) {
    for (std::size_t l = 0; l < lanes; ++l) phi[l] += drift[l] * h + sigmaSqrtH * z[l];
}

const Kernels& scalarKernels() {
    static const Kernels k = {Tier::Scalar,        &splineAffineScalar, &rkStageScalar,
                              &rkf45EmbeddedScalar, &axpyLanesScalar,   &rk4CombineScalar,
                              &normalFillScalar,    &mcUpdateScalar};
    return k;
}

}  // namespace detail

}  // namespace phlogon::num::simd
