#include "core/gae.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/osc_fixture.hpp"
#include "core/gae_sweep.hpp"

namespace phlogon::core {
namespace {

const PpvModel& model() { return testutil::sharedOsc().model(); }
std::size_t injNode() { return testutil::sharedOsc().outputUnknown(); }

TEST(Gae, SyncOnlyShilHasTwoStableLocksHalfCycleApart) {
    const Gae gae(model(), testutil::kF1, {Injection::tone(injNode(), 100e-6, 2)});
    const auto stable = gae.stableEquilibria();
    ASSERT_EQ(stable.size(), 2u);
    EXPECT_NEAR(phaseDistance(stable[0].dphi, stable[1].dphi), 0.5, 1e-3);
    for (const auto& e : stable) EXPECT_LT(e.gSlope, 0.0);
}

TEST(Gae, FourEquilibriaUnderShil) {
    const Gae gae(model(), testutil::kF1, {Injection::tone(injNode(), 100e-6, 2)});
    EXPECT_EQ(gae.equilibria().size(), 4u);  // 2 stable + 2 unstable
}

TEST(Gae, FundamentalToneHasSingleStableLock) {
    const Gae gae(model(), model().f0(), {Injection::tone(injNode(), 50e-6, 1)});
    EXPECT_EQ(gae.stableEquilibria().size(), 1u);
}

TEST(Gae, GScalesLinearlyWithAmplitude) {
    const Gae g1(model(), model().f0(), {Injection::tone(injNode(), 50e-6, 2)});
    const Gae g2(model(), model().f0(), {Injection::tone(injNode(), 100e-6, 2)});
    for (double dphi = 0.0; dphi < 1.0; dphi += 0.09)
        EXPECT_NEAR(g2.g(dphi), 2.0 * g1.g(dphi), 1e-5 * std::abs(g2.gMax()) + 1e-12);
}

TEST(Gae, GIsSumOverInjections) {
    const Injection sync = Injection::tone(injNode(), 100e-6, 2);
    const Injection data = Injection::tone(injNode(), 40e-6, 1, 0.3);
    const Gae gs(model(), testutil::kF1, {sync});
    const Gae gd(model(), testutil::kF1, {data});
    const Gae gboth(model(), testutil::kF1, {sync, data});
    for (double dphi = 0.0; dphi < 1.0; dphi += 0.11)
        EXPECT_NEAR(gboth.g(dphi), gs.g(dphi) + gd.g(dphi), 1e-9);
}

TEST(Gae, SecondHarmonicToneGivesHalfPeriodicG) {
    const Gae gae(model(), model().f0(), {Injection::tone(injNode(), 100e-6, 2)});
    for (double dphi = 0.0; dphi < 0.5; dphi += 0.07)
        EXPECT_NEAR(gae.g(dphi), gae.g(dphi + 0.5), 1e-6 * std::abs(gae.gMax()) + 1e-12);
}

TEST(Gae, LhsIsRelativeDetuning) {
    const Gae gae(model(), 1.01 * model().f0(), {Injection::tone(injNode(), 100e-6, 2)});
    EXPECT_NEAR(gae.lhs(), 0.01, 1e-9);
}

TEST(Gae, RhsZeroAtEquilibria) {
    const Gae gae(model(), testutil::kF1, {Injection::tone(injNode(), 100e-6, 2)});
    for (const auto& e : gae.equilibria())
        EXPECT_NEAR(gae.rhs(e.dphi), 0.0, 1e-6 * model().f0());
}

TEST(Gae, NoLockBeyondRange) {
    // Detune far outside the locking range: no equilibria.
    const Gae gae(model(), 1.05 * model().f0(), {Injection::tone(injNode(), 100e-6, 2)});
    EXPECT_FALSE(gae.locks());
    EXPECT_TRUE(gae.equilibria().empty());
}

TEST(Gae, ZeroAmplitudeDegenerates) {
    const Gae gae(model(), model().f0(), {Injection::tone(injNode(), 0.0, 2)});
    EXPECT_NEAR(gae.gMax(), 0.0, 1e-18);
    EXPECT_NEAR(gae.gMin(), 0.0, 1e-18);
}

TEST(Gae, RejectsBadInputs) {
    EXPECT_THROW(Gae(PpvModel{}, 1.0, {}), std::invalid_argument);
    EXPECT_THROW(Gae(model(), -1.0, {}), std::invalid_argument);
    EXPECT_THROW(Gae(model(), 1.0, {Injection::tone(999, 1.0, 1)}), std::invalid_argument);
}

TEST(Gae, RejectsGridSmallerThanThree) {
    // A grid of 0 points used to dereference the extrema of an empty grid;
    // the sweep entry points forward their gridSize to the same check.
    const std::vector<Injection> sync{Injection::tone(injNode(), 100e-6, 2)};
    for (std::size_t n : {std::size_t{0}, std::size_t{2}}) {
        EXPECT_THROW(Gae(model(), model().f0(), sync, n), std::invalid_argument) << n;
        EXPECT_THROW(lockingRange(model(), sync, n), std::invalid_argument) << n;
    }
    EXPECT_EQ(Gae(model(), model().f0(), sync, 3).gridSize(), 3u);
}

TEST(Gae, SyncPhaseShiftsLockPhasesByHalf) {
    // Shifting SYNC by half its own cycle (0.5 of the 2f1 tone) shifts the
    // lock phases by 0.25 of the reference cycle.
    const Gae a(model(), model().f0(), {Injection::tone(injNode(), 100e-6, 2, 0.0)});
    const Gae b(model(), model().f0(), {Injection::tone(injNode(), 100e-6, 2, 0.5)});
    const auto sa = a.stableEquilibria();
    const auto sb = b.stableEquilibria();
    ASSERT_EQ(sa.size(), 2u);
    ASSERT_EQ(sb.size(), 2u);
    const double shift = phaseDistance(sa[0].dphi, sb[0].dphi);
    EXPECT_NEAR(shift, 0.25, 1e-3);
}

TEST(Gae, PhaseDependentInjectionUsesDirectEvaluation) {
    // A constant-in-psi feedback contributes a dphi-dependent offset.
    const Injection fb = Injection::phaseDependent(
        injNode(), [](double, double dphi) { return 1e-5 * std::cos(2.0 * std::numbers::pi * dphi); });
    const Gae gae(model(), model().f0(), {fb}, 512);
    // g(dphi) = <v> * 1e-5 cos(2 pi dphi): nonzero variation since <v> != 0.
    EXPECT_GT(gae.gMax() - gae.gMin(), 0.0);
}

TEST(Gae, SampledInjectionMatchesEquivalentTone) {
    const Injection tone = Injection::tone(injNode(), 80e-6, 1, 0.2);
    const Injection samp = Injection::sampled(injNode(), tone.sampleGrid(1024));
    const Gae gt(model(), model().f0(), {tone});
    const Gae gs(model(), model().f0(), {samp});
    for (double dphi = 0.05; dphi < 1.0; dphi += 0.13)
        EXPECT_NEAR(gt.g(dphi), gs.g(dphi), 1e-6 * std::abs(gt.gMax()) + 1e-12);
}

TEST(Gae, SeamEquilibriumReportedExactlyOnce) {
    // Regression: engineer a lock phase at the Δφ = 0/1 periodic seam by
    // choosing f1 so that lhs == g(0) (g does not depend on f1, only the
    // detuning term does).  The equilibrium scan must report exactly one
    // equilibrium at the seam — neither dropped nor double-counted — and
    // every phase must lie in [0, 1).
    const std::vector<Injection> inj{Injection::tone(injNode(), 100e-6, 2)};
    const Gae probe(model(), testutil::kF1, inj);
    const double f0 = probe.f0();
    const Gae gae(model(), f0 * (1.0 + probe.g(0.0)), inj);
    const auto eqs = gae.equilibria();
    std::size_t atSeam = 0;
    for (const auto& e : eqs) {
        EXPECT_GE(e.dphi, 0.0);
        EXPECT_LT(e.dphi, 1.0);
        if (phaseDistance(e.dphi, 0.0) < 1e-6) ++atSeam;
    }
    EXPECT_EQ(atSeam, 1u);
    // The generic picture away from tangency: 4 intersections of lhs with g.
    EXPECT_EQ(eqs.size(), 4u);
}

TEST(Gae, BatchedEvaluatorsMatchScalar) {
    // rhsMany promises bitwise equality with the scalar rhs() on the
    // process-wide SIMD tier; the simd-parity CI job runs this under
    // PHLOGON_SIMD=0 and =1.
    const Gae gae(model(), testutil::kF1, {Injection::tone(injNode(), 100e-6, 2)});
    std::vector<double> dphi;
    for (double x = -1.3; x < 2.0; x += 0.0617) dphi.push_back(x);
    dphi.push_back(0.0);
    dphi.push_back(std::nextafter(1.0, 0.0));
    std::vector<double> rhs(dphi.size());
    gae.rhsMany(dphi.data(), rhs.data(), dphi.size());
    for (std::size_t i = 0; i < dphi.size(); ++i)
        EXPECT_EQ(rhs[i], gae.rhs(dphi[i])) << "dphi=" << dphi[i];
}

}  // namespace
}  // namespace phlogon::core
