// SIMD kernel tier parity: every tier must produce bitwise-identical
// results to the Scalar tier (the lane contract in numeric/simd/simd.hpp).
// Comparisons use EXPECT_EQ on doubles — exact equality, not tolerance —
// so the CI parity gate (<= 1 ulp) is met with margin 0.

#include "numeric/simd/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "numeric/batch_ode.hpp"
#include "numeric/interp.hpp"
#include "numeric/rkf45_tableau.hpp"
#include "numeric/rng.hpp"

using namespace phlogon;
using num::simd::Kernels;
using num::simd::Tier;

namespace {

// Deterministic but irregular test doubles in [lo, hi).
std::vector<double> fill(std::size_t n, double lo, double hi, std::uint64_t seed) {
    num::SplitMix64 rng(seed);
    std::vector<double> v(n);
    for (double& x : v) x = lo + (hi - lo) * rng.nextUnit();
    return v;
}

std::vector<Tier> tiersToTest() {
    std::vector<Tier> out = {Tier::Scalar};
    if (num::simd::detectedTier() == Tier::Avx2) out.push_back(Tier::Avx2);
    return out;
}

// Lane counts straddling the 4-wide groups: empty, sub-group, exact
// multiples, and ragged tails.
const std::size_t kLaneCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 257};

}  // namespace

TEST(SimdDispatch, DetectedTierIsStable) {
    const Tier a = num::simd::detectedTier();
    const Tier b = num::simd::detectedTier();
    EXPECT_EQ(a, b);
    EXPECT_TRUE(a == Tier::Scalar || a == Tier::Avx2);
}

TEST(SimdDispatch, KernelsClampToDetectedTier) {
    const Kernels& k = num::simd::kernels(Tier::Avx2);
    EXPECT_LE(static_cast<int>(k.tier), static_cast<int>(num::simd::detectedTier()));
    EXPECT_EQ(num::simd::kernels(Tier::Scalar).tier, Tier::Scalar);
}

TEST(SimdDispatch, ResolveTierIsProcessWide) {
    // One tier for the whole process, whatever the (ignored) argument: the
    // detected tier, unless PHLOGON_SIMD=0 forces the scalar loops.
    const Tier want = num::simd::envMode() == num::simd::EnvMode::ForceOff
                          ? Tier::Scalar
                          : num::simd::detectedTier();
    EXPECT_EQ(num::simd::resolveTier(), want);
    EXPECT_EQ(num::simd::resolveTier(false), want);
    EXPECT_EQ(num::simd::resolveTier(true), want);
}

TEST(SimdDispatch, TierNames) {
    EXPECT_STREQ(num::simd::tierName(Tier::Scalar), "scalar");
    EXPECT_STREQ(num::simd::tierName(Tier::Avx2), "avx2");
}

TEST(SimdParity, SplineAffineAllTiers) {
    // A real spline's table (so the coefficients are representative),
    // probed with phases spanning many wraps plus the seam-adjacent corners.
    for (std::size_t nSeg : {3ul, 8ul, 64ul, 1024ul}) {
        num::Vec samples(nSeg);
        for (std::size_t i = 0; i < nSeg; ++i)
            samples[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / static_cast<double>(nSeg)) +
                         0.25 * std::cos(6.0 * M_PI * static_cast<double>(i) / static_cast<double>(nSeg));
        const num::PeriodicCubicSpline spline(samples);
        const double* coeffs = spline.coeffs().data();

        for (std::size_t n : kLaneCounts) {
            std::vector<double> t = fill(n, -3.0, 3.0, 0x5eed0 + n);
            // Plant seam-adjacent and exact-knot values in the batch.
            for (std::size_t i = 0; i < n; ++i) {
                if (i % 7 == 0) t[i] = std::nextafter(static_cast<double>(i), -1.0);
                if (i % 11 == 0) t[i] = static_cast<double>(i / 11);  // integers: wrap to 0
            }
            std::vector<double> ref(n, -1.0);
            num::simd::kernels(Tier::Scalar)
                .splineAffine(coeffs, nSeg, t.data(), ref.data(), n, 1.7, -0.3);
            for (Tier tier : tiersToTest()) {
                std::vector<double> out(n, 99.0);
                num::simd::kernels(tier).splineAffine(coeffs, nSeg, t.data(), out.data(), n,
                                                      1.7, -0.3);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(ref[i], out[i])
                        << "tier=" << num::simd::tierName(tier) << " nSeg=" << nSeg
                        << " lane=" << i << " t=" << t[i];
                // The identity affine map on every tier agrees with the
                // spline's scalar operator() too.
                std::vector<double> plain(n);
                num::simd::kernels(tier).splineAffine(coeffs, nSeg, t.data(), plain.data(), n,
                                                      1.0, -0.0);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(spline(t[i]), plain[i])
                        << "tier=" << num::simd::tierName(tier) << " t=" << t[i];
            }
        }
    }
}

TEST(SimdParity, RkStageAllTiers) {
    using namespace num::cashkarp;
    static constexpr double kB6[] = {B61, B62, B63, B64, B65};
    for (std::size_t lanes : kLaneCounts) {
        const std::vector<double> y = fill(lanes, -2.0, 2.0, 11);
        const std::vector<double> h = fill(lanes, 1e-6, 1e-2, 12);
        const std::vector<double> t = fill(lanes, 0.0, 5.0, 13);
        const std::vector<double> k1 = fill(lanes, -4.0, 4.0, 14);
        const std::vector<double> k2 = fill(lanes, -4.0, 4.0, 15);
        const std::vector<double> k3 = fill(lanes, -4.0, 4.0, 16);
        const std::vector<double> k4 = fill(lanes, -4.0, 4.0, 17);
        const std::vector<double> k5 = fill(lanes, -4.0, 4.0, 18);
        const double* ks[5] = {k1.data(), k2.data(), k3.data(), k4.data(), k5.data()};
        // Mixed active mask (and lanes > 8 exercises full vector groups with
        // the mask all-set and all-clear).
        std::vector<unsigned char> active(lanes, 1);
        for (std::size_t l = 0; l < lanes; ++l)
            if (l % 5 == 3 || (l >= 8 && l < 12)) active[l] = 0;

        for (const unsigned char* mask : {static_cast<const unsigned char*>(nullptr),
                                          static_cast<const unsigned char*>(active.data())}) {
            std::vector<double> ytRef(lanes, 7.0), tsRef(lanes, 7.0);
            num::simd::kernels(Tier::Scalar)
                .rkStage(y.data(), h.data(), t.data(), ks, kB6, 5, A6, ytRef.data(),
                         tsRef.data(), mask, lanes);
            for (Tier tier : tiersToTest()) {
                std::vector<double> yt(lanes, 7.0), ts(lanes, 7.0);
                num::simd::kernels(tier).rkStage(y.data(), h.data(), t.data(), ks, kB6, 5,
                                                 A6, yt.data(), ts.data(), mask, lanes);
                for (std::size_t l = 0; l < lanes; ++l) {
                    EXPECT_EQ(ytRef[l], yt[l]) << "tier=" << num::simd::tierName(tier)
                                               << " lanes=" << lanes << " l=" << l;
                    EXPECT_EQ(tsRef[l], ts[l]) << "tier=" << num::simd::tierName(tier)
                                               << " lanes=" << lanes << " l=" << l;
                }
            }
        }
    }
}

TEST(SimdParity, Rkf45EmbeddedAllTiers) {
    for (std::size_t lanes : kLaneCounts) {
        const std::vector<double> y = fill(lanes, -2.0, 2.0, 21);
        const std::vector<double> h = fill(lanes, 1e-6, 1e-2, 22);
        const std::vector<double> k1 = fill(lanes, -4.0, 4.0, 23);
        const std::vector<double> k3 = fill(lanes, -4.0, 4.0, 24);
        const std::vector<double> k4 = fill(lanes, -4.0, 4.0, 25);
        const std::vector<double> k5 = fill(lanes, -4.0, 4.0, 26);
        const std::vector<double> k6 = fill(lanes, -4.0, 4.0, 27);
        std::vector<unsigned char> active(lanes, 1);
        for (std::size_t l = 0; l < lanes; ++l)
            if (l % 3 == 1) active[l] = 0;

        for (const unsigned char* mask : {static_cast<const unsigned char*>(nullptr),
                                          static_cast<const unsigned char*>(active.data())}) {
            std::vector<double> y5Ref(lanes, 7.0), errRef(lanes, 7.0);
            num::simd::kernels(Tier::Scalar)
                .rkf45Embedded(y.data(), h.data(), k1.data(), k3.data(), k4.data(),
                               k5.data(), k6.data(), 1e-9, 1e-7, y5Ref.data(),
                               errRef.data(), mask, lanes);
            for (Tier tier : tiersToTest()) {
                std::vector<double> y5(lanes, 7.0), err(lanes, 7.0);
                num::simd::kernels(tier).rkf45Embedded(
                    y.data(), h.data(), k1.data(), k3.data(), k4.data(), k5.data(),
                    k6.data(), 1e-9, 1e-7, y5.data(), err.data(), mask, lanes);
                for (std::size_t l = 0; l < lanes; ++l) {
                    EXPECT_EQ(y5Ref[l], y5[l]) << "tier=" << num::simd::tierName(tier)
                                               << " lanes=" << lanes << " l=" << l;
                    EXPECT_EQ(errRef[l], err[l]) << "tier=" << num::simd::tierName(tier)
                                                 << " lanes=" << lanes << " l=" << l;
                }
            }
        }
    }
}

TEST(SimdParity, AxpyAndRk4CombineAllTiers) {
    for (std::size_t lanes : kLaneCounts) {
        const std::vector<double> y = fill(lanes, -2.0, 2.0, 31);
        const std::vector<double> k1 = fill(lanes, -4.0, 4.0, 32);
        const std::vector<double> k2 = fill(lanes, -4.0, 4.0, 33);
        const std::vector<double> k3 = fill(lanes, -4.0, 4.0, 34);
        const std::vector<double> k4 = fill(lanes, -4.0, 4.0, 35);
        const double h = 3.7e-4;

        std::vector<double> ytRef(lanes);
        num::simd::kernels(Tier::Scalar).axpyLanes(y.data(), k1.data(), 0.5 * h, ytRef.data(), lanes);
        std::vector<double> yRef = y;
        num::simd::kernels(Tier::Scalar)
            .rk4Combine(yRef.data(), k1.data(), k2.data(), k3.data(), k4.data(), h, lanes);

        for (Tier tier : tiersToTest()) {
            std::vector<double> yt(lanes);
            num::simd::kernels(tier).axpyLanes(y.data(), k1.data(), 0.5 * h, yt.data(), lanes);
            std::vector<double> yv = y;
            num::simd::kernels(tier).rk4Combine(yv.data(), k1.data(), k2.data(), k3.data(),
                                                k4.data(), h, lanes);
            for (std::size_t l = 0; l < lanes; ++l) {
                EXPECT_EQ(ytRef[l], yt[l]) << num::simd::tierName(tier) << " l=" << l;
                EXPECT_EQ(yRef[l], yv[l]) << num::simd::tierName(tier) << " l=" << l;
            }
        }
    }
}

TEST(SimdParity, NormalFillMatchesScalarStreams) {
    const auto& zig = num::ZigguratNormal::instance();
    // Enough draws that every lane hits wedge rejections and (statistically)
    // some base-strip edge cases; stream equality after the fill proves the
    // fast path consumed exactly the same variates.
    const std::size_t rounds = 2000;
    for (std::size_t lanes : {1ul, 3ul, 4ul, 5ul, 8ul, 13ul}) {
        for (Tier tier : tiersToTest()) {
            std::vector<num::SplitMix64> a, b;
            for (std::size_t l = 0; l < lanes; ++l) {
                a.emplace_back(1000 + l);
                b.emplace_back(1000 + l);
            }
            std::vector<double> outA(lanes), outB(lanes);
            for (std::size_t r = 0; r < rounds; ++r) {
                num::simd::kernels(Tier::Scalar).normalFill(zig, a.data(), outA.data(), lanes);
                num::simd::kernels(tier).normalFill(zig, b.data(), outB.data(), lanes);
                for (std::size_t l = 0; l < lanes; ++l)
                    EXPECT_EQ(outA[l], outB[l]) << num::simd::tierName(tier) << " round=" << r
                                                << " lane=" << l;
            }
            // Post-fill stream positions must agree too.
            for (std::size_t l = 0; l < lanes; ++l) EXPECT_EQ(a[l](), b[l]());
        }
    }
}

TEST(SimdParity, McUpdateAllTiers) {
    for (std::size_t lanes : kLaneCounts) {
        const std::vector<double> phi0 = fill(lanes, -0.5, 0.5, 41);
        const std::vector<double> drift = fill(lanes, -3.0, 3.0, 42);
        const std::vector<double> z = fill(lanes, -4.0, 4.0, 43);
        std::vector<double> ref = phi0;
        num::simd::kernels(Tier::Scalar)
            .mcUpdate(ref.data(), drift.data(), 2.5e-4, 1.3e-3, z.data(), lanes);
        for (Tier tier : tiersToTest()) {
            std::vector<double> phi = phi0;
            num::simd::kernels(tier).mcUpdate(phi.data(), drift.data(), 2.5e-4, 1.3e-3,
                                              z.data(), lanes);
            for (std::size_t l = 0; l < lanes; ++l)
                EXPECT_EQ(ref[l], phi[l]) << num::simd::tierName(tier) << " l=" << l;
        }
    }
}

namespace {

// Stiff-ish nonlinear scalar RHS giving the step controller real
// accept/reject work, batched over lanes.
num::BatchRhs1 pendulumRhs() {
    return [](const double* t, const double* y, double* dydt, const unsigned char* active,
              std::size_t lanes) {
        for (std::size_t l = 0; l < lanes; ++l) {
            if (active && !active[l]) continue;
            dydt[l] = -2.5 * std::sin(y[l]) + 0.3 * std::cos(3.0 * t[l]);
        }
    };
}

}  // namespace

TEST(SimdBatchOde, Rkf45SimdOnEqualsOff) {
    // BatchOde on the process-wide tier against the scalar reference
    // integrator, lane by lane, bit for bit.
    const num::OdeRhs1 scalarRhs = [](double t, double y) {
        return -2.5 * std::sin(y) + 0.3 * std::cos(3.0 * t);
    };
    for (std::size_t lanes : {1ul, 5ul, 32ul, 63ul}) {
        num::Vec y0(lanes);
        for (std::size_t l = 0; l < lanes; ++l)
            y0[l] = -1.5 + 3.0 * static_cast<double>(l) / static_cast<double>(lanes);
        num::OdeOptions opt;
        opt.absTol = 1e-10;
        opt.relTol = 1e-8;
        num::BatchOde batch(lanes);
        const num::BatchOdeSolution b = batch.rkf45(pendulumRhs(), y0, 0.0, 2.0, opt);
        ASSERT_EQ(b.lanes.size(), lanes);
        EXPECT_TRUE(b.ok);
        for (std::size_t l = 0; l < lanes; ++l) {
            const num::OdeSolution1 a = num::rkf45Scalar(scalarRhs, y0[l], 0.0, 2.0, opt);
            EXPECT_EQ(a.ok, b.lanes[l].ok) << "lane " << l;
            ASSERT_EQ(a.t.size(), b.lanes[l].t.size()) << "lane " << l;
            for (std::size_t i = 0; i < a.t.size(); ++i) {
                EXPECT_EQ(a.t[i], b.lanes[l].t[i]) << "lane " << l << " i=" << i;
                EXPECT_EQ(a.y[i], b.lanes[l].y[i]) << "lane " << l << " i=" << i;
            }
        }
    }
}

TEST(SimdBatchOde, Rk4LockstepSimdOnEqualsOff) {
    // rk4Lockstep on the process-wide tier against num::rk4 thinned to the
    // same storeEvery grid: the initial point, every 7th step, the last.
    const auto coupled = [](double t, const double* y, double* dydt, std::size_t lanes) {
        // Ring diffusion plus a forcing term.
        for (std::size_t l = 0; l < lanes; ++l) {
            const double left = y[(l + lanes - 1) % lanes];
            const double right = y[(l + 1) % lanes];
            dydt[l] = 0.5 * (left + right - 2.0 * y[l]) + 0.1 * std::sin(t + static_cast<double>(l));
        }
    };
    const num::OdeRhs vecRhs = [&](double t, const num::Vec& y) {
        num::Vec dydt(y.size());
        coupled(t, y.data(), dydt.data(), y.size());
        return dydt;
    };
    const std::size_t nSteps = 200, storeEvery = 7;
    for (std::size_t lanes : {1ul, 6ul, 16ul, 37ul}) {
        num::Vec y0(lanes);
        for (std::size_t l = 0; l < lanes; ++l) y0[l] = std::cos(static_cast<double>(l));
        num::BatchOde batch(lanes);
        const num::OdeSolution b = batch.rk4Lockstep(coupled, y0, 0.0, 1.0, nSteps, storeEvery);
        const num::OdeSolution full = num::rk4(vecRhs, y0, 0.0, 1.0, nSteps);
        num::OdeSolution a;
        for (std::size_t i = 0; i <= nSteps; ++i) {
            if (i % storeEvery != 0 && i != nSteps) continue;
            a.t.push_back(full.t[i]);
            a.y.push_back(full.y[i]);
        }
        ASSERT_EQ(a.t.size(), b.t.size());
        for (std::size_t i = 0; i < a.t.size(); ++i) {
            EXPECT_EQ(a.t[i], b.t[i]);
            for (std::size_t l = 0; l < lanes; ++l) EXPECT_EQ(a.y[i][l], b.y[i][l]);
        }
    }
}
