#include "core/gae_transient.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/osc_fixture.hpp"
#include "core/gae_sweep.hpp"

namespace phlogon::core {
namespace {

const PpvModel& model() { return testutil::sharedOsc().model(); }
std::size_t injNode() { return testutil::sharedOsc().outputUnknown(); }
const logic::SyncLatchDesign& design() { return testutil::sharedDesign(); }
double bitT() { return 40.0 / design().f1; }

std::vector<Injection> syncOnly() { return {Injection::tone(injNode(), 100e-6, 2)}; }

/// Fig. 12: write 1 at 150 uA for one 40-cycle bit, then 0.
std::vector<GaeSegment> fig12Schedule() {
    const auto& d = design();
    return {{0.0, {d.sync(), d.dataInjection(150e-6, 1)}},
            {bitT(), {d.sync(), d.dataInjection(150e-6, 0)}}};
}

/// Write 1 at `amp` for `cycles` reference cycles from just off the 0 lock.
GaeTransientResult writeOne(double amp, double cycles) {
    const auto& d = design();
    return gaeTransient(model(), d.f1, {{0.0, {d.sync(), d.dataInjection(amp, 1)}}},
                        d.reference.phase0 + 0.02, 0.0, cycles / d.f1);
}

/// Bitwise equality of two runs, counters included.
void expectSameRun(const GaeTransientResult& a, const GaeTransientResult& b) {
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.dphi, b.dphi);
    EXPECT_EQ(a.counters.steps, b.counters.steps);
    EXPECT_EQ(a.counters.rejectedSteps, b.counters.rejectedSteps);
    EXPECT_EQ(a.counters.rhsEvals, b.counters.rhsEvals);
}

TEST(GaeTransient, RelaxesToNearestStableLock) {
    const Gae gae(model(), testutil::kF1, syncOnly());
    const auto stable = gae.stableEquilibria();
    ASSERT_EQ(stable.size(), 2u);
    // Start near (but not at) the first lock.
    const double start = stable[0].dphi + 0.08;
    const auto r = gaeTransient(model(), testutil::kF1, {{0.0, syncOnly()}}, start, 0.0,
                                40.0 / testutil::kF1);
    ASSERT_TRUE(r.ok);
    EXPECT_LT(phaseDistance(r.final(), stable[0].dphi), 1e-3);
}

TEST(GaeTransient, UnlockedPhaseDriftsMonotonically) {
    // Way outside the locking range the phase slips cycle after cycle.
    const double f1 = model().f0() * 1.05;
    const auto r = gaeTransient(model(), f1, {{0.0, syncOnly()}}, 0.0, 0.0, 20.0 / f1);
    ASSERT_TRUE(r.ok);
    EXPECT_LT(r.final(), -0.5);  // f1 > f0: dphi decreases
}

TEST(GaeTransient, BitFlipReachesTargetPhase) {
    const auto r = writeOne(150e-6, 40.0);
    ASSERT_TRUE(r.ok);
    EXPECT_LT(phaseDistance(r.final(), design().reference.phase1), 0.03);
}

TEST(GaeTransient, WeakInputFailsToFlip) {
    // Fig. 12 behaviour: a D amplitude below the flip threshold cannot move
    // the bit.  (This design's threshold is ~2*syncAmp*|V2|/|V1| ~ 20 uA;
    // the paper's circuit had ~50 uA — same physics, different constants.)
    const auto r = writeOne(10e-6, 60.0);
    ASSERT_TRUE(r.ok);
    EXPECT_LT(phaseDistance(r.final(), design().reference.phase0), 0.1);
}

TEST(GaeTransient, StrongerInputFlipsFaster) {
    auto flipTime = [](double amp) {
        const auto r = writeOne(amp, 80.0);
        EXPECT_TRUE(r.ok);
        return settleTime(r, design().reference.phase1, 0.02);
    };
    const double t100 = flipTime(100e-6);
    const double t150 = flipTime(150e-6);
    EXPECT_LT(t150, t100);
}

TEST(GaeTransient, ScheduleSegmentsSwitchInjections) {
    const auto& d = design();
    const auto r =
        gaeTransient(model(), d.f1, fig12Schedule(), d.reference.phase0 + 0.02, 0.0, 2.0 * bitT());
    ASSERT_TRUE(r.ok);
    EXPECT_LT(phaseDistance(r.at(0.95 * bitT()), d.reference.phase1), 0.03);
    EXPECT_LT(phaseDistance(r.final(), d.reference.phase0), 0.03);
}

TEST(GaeTransient, AtInterpolatesBetweenPoints) {
    const auto r = gaeTransient(model(), testutil::kF1, {{0.0, syncOnly()}}, 0.2, 0.0,
                                5.0 / testutil::kF1);
    ASSERT_TRUE(r.ok);
    ASSERT_GE(r.t.size(), 3u);
    const double mid = 0.5 * (r.t[0] + r.t[1]);
    const double v = r.at(mid);
    EXPECT_GE(v, std::min(r.dphi[0], r.dphi[1]) - 1e-12);
    EXPECT_LE(v, std::max(r.dphi[0], r.dphi[1]) + 1e-12);
    // Out-of-range queries clamp.
    EXPECT_DOUBLE_EQ(r.at(-1.0), r.dphi.front());
    EXPECT_DOUBLE_EQ(r.at(1e9), r.dphi.back());
}

TEST(GaeTransient, RejectsBadSchedules) {
    EXPECT_THROW(gaeTransient(model(), testutil::kF1, {}, 0.0, 0.0, 1.0), std::invalid_argument);
    std::vector<GaeSegment> unsorted{{1.0, syncOnly()}, {0.0, syncOnly()}};
    EXPECT_THROW(gaeTransient(model(), testutil::kF1, unsorted, 0.0, 0.0, 1.0),
                 std::invalid_argument);
}

TEST(GaeEnsemble, MatchesScalarBitFlipTrajectories) {
    // The Fig. 10/12 two-tone bit-flip experiment as an ensemble: for B = 1..8
    // starting phases, lane l of the B-lane run must equal the one-lane run
    // (gaeTransient) from the same start bitwise, counters included, since
    // lanes never interact.
    const auto& d = design();
    for (std::size_t B = 1; B <= 8; ++B) {
        Vec starts(B);
        for (std::size_t l = 0; l < B; ++l)
            starts[l] = d.reference.phase0 + 0.01 + 0.012 * static_cast<double>(l);
        const auto ens =
            gaeTransientEnsemble(model(), d.f1, fig12Schedule(), starts, 0.0, 2.0 * bitT());
        ASSERT_TRUE(ens.ok) << "B=" << B;
        ASSERT_EQ(ens.trials.size(), B);
        for (std::size_t l = 0; l < B; ++l) {
            SCOPED_TRACE("B=" + std::to_string(B) + " lane=" + std::to_string(l));
            const auto ref =
                gaeTransient(model(), d.f1, fig12Schedule(), starts[l], 0.0, 2.0 * bitT());
            ASSERT_TRUE(ref.ok);
            expectSameRun(ens.trials[l], ref);
            // And the physics: each lane completes the 1 -> 0 flip.
            EXPECT_LT(phaseDistance(ens.trials[l].at(0.95 * bitT()), d.reference.phase1), 0.03);
            EXPECT_LT(phaseDistance(ens.trials[l].final(), d.reference.phase0), 0.03);
        }
    }
}

TEST(GaeEnsemble, FailedSegmentKeepsCountersButNoPoints) {
    // One failure rule on every entry point: a segment that runs out of
    // steps adds its counters but none of its points.
    const auto& d = design();
    num::OdeOptions opt;
    opt.maxSteps = 30;
    const double start = d.reference.phase0 + 0.02;
    const auto one = gaeTransient(model(), d.f1, fig12Schedule(), start, 0.0, 2.0 * bitT(), opt);
    const auto ens = gaeTransientEnsemble(model(), d.f1, fig12Schedule(), Vec{start, start + 0.01},
                                          0.0, 2.0 * bitT(), opt);
    EXPECT_FALSE(one.ok);
    EXPECT_EQ(one.t.size(), 1u);
    EXPECT_EQ(one.counters.steps, 30u);
    expectSameRun(ens.trials[0], one);
}

TEST(GaeEnsemble, EmptyEnsembleAndValidation) {
    const auto& d = testutil::sharedDesign();
    const auto none =
        gaeTransientEnsemble(model(), d.f1, {{0.0, {d.sync()}}}, Vec{}, 0.0, 1.0 / d.f1);
    EXPECT_TRUE(none.ok);
    EXPECT_TRUE(none.trials.empty());
    EXPECT_THROW(gaeTransientEnsemble(model(), d.f1, {}, Vec{0.0}, 0.0, 1.0),
                 std::invalid_argument);
}

// Goldens printed at %.17g from the scalar-RKF45 engine that gaeTransient
// ran before it became the ensemble engine's one-lane call, re-pinned once
// when the PSS time origin moved to n1's rising mean-crossing on the
// converged orbit (the phases shift by that gauge).  Point counts and
// counters compare exactly, phases and times at 1e-12 relative.  CI runs the
// suite on the default SIMD tier and under PHLOGON_SIMD=0.
void expectWork(const GaeTransientResult& r, std::size_t points, std::size_t steps,
                std::size_t rejected, std::size_t rhsEvals) {
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.t.size(), points);
    EXPECT_EQ(r.counters.steps, steps);
    EXPECT_EQ(r.counters.rejectedSteps, rejected);
    EXPECT_EQ(r.counters.rhsEvals, rhsEvals);
}

void expectGolden(double value, double golden) {
    EXPECT_NEAR(value, golden, 1e-12 * std::abs(golden));
}

TEST(GaeTransientGolden, Fig12TwoSegmentFlip) {
    const auto& d = design();
    const auto r =
        gaeTransient(model(), d.f1, fig12Schedule(), d.reference.phase0 + 0.02, 0.0, 2.0 * bitT());
    expectWork(r, 85, 84, 12, 576);
    expectGolden(r.final(), 0.55574862306627137);
    expectGolden(r.at(0.95 * bitT()), 1.0557483855794361);
    // Re-pinned once when g(Δφ) moved from the Hermite-form spline to its
    // per-cell polynomial form (same cubic, last-bit rounding differences):
    // was 0.0070584919126468609, 9e-10 relative; the other values held.
    expectGolden(settleTime(r, d.reference.phase0), 0.0070584919193001187);
}

TEST(GaeTransientGolden, WeakWriteHolds) {
    const auto r = writeOne(10e-6, 60.0);
    expectWork(r, 13, 12, 0, 72);
    expectGolden(r.final(), 0.55616323268397638);
    expectGolden(settleTime(r, design().reference.phase0), 6.2500000000000003e-06);
}

TEST(GaeTransientGolden, StrongWriteFlips) {
    const auto r = writeOne(150e-6, 60.0);
    expectWork(r, 44, 43, 3, 276);
    expectGolden(r.final(), 1.0557484070144441);
    expectGolden(settleTime(r, design().reference.phase1), 0.00076165335603502822);
}

TEST(SettleTime, DetectsFirstPersistentEntry) {
    GaeTransientResult r;
    r.ok = true;
    r.t = {0.0, 1.0, 2.0, 3.0, 4.0};
    r.dphi = {0.5, 0.3, 0.11, 0.1, 0.1};
    EXPECT_DOUBLE_EQ(settleTime(r, 0.1, 0.02), 2.0);
}

TEST(SettleTime, LeavingBandResets) {
    GaeTransientResult r;
    r.ok = true;
    r.t = {0.0, 1.0, 2.0, 3.0};
    r.dphi = {0.1, 0.5, 0.1, 0.1};
    EXPECT_DOUBLE_EQ(settleTime(r, 0.1, 0.02), 2.0);
}

}  // namespace
}  // namespace phlogon::core
