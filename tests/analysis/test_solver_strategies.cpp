// Golden regression for the solver engine.
//
// The circuit analyses run one integrator, fixed-step TRAP with full Newton.
// The oscillator frequency and the Fig. 10 / Fig. 12 values are printed at
// %.17g from the current engine: the warm-up that stops once it settles and
// the extrapolated shooting-step predictor moved them at Newton tolerance
// (f0 by 1.5e-11 relative), and they were re-pinned once then.  All are
// pinned at 1e-12 relative, like tests/core/test_sweep_golden.cpp, and the
// default ring PSS work counters are pinned exactly.
//
// A characterization at a tighter per-step Newton tolerance (absTol 1e-12)
// must land on the same physics: f0 within 1e-9 relative of the golden and
// the Fig. 12 bit-flip trajectory within the GAE integrator's own tolerance.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/pss.hpp"
#include "common/osc_fixture.hpp"
#include "core/gae_sweep.hpp"
#include "core/gae_transient.hpp"
#include "phlogon/latch.hpp"
#include "phlogon/reference.hpp"

namespace phlogon::an {
namespace {

void expectGolden(double value, double golden, double relTol = 1e-12) {
    EXPECT_NEAR(value, golden, relTol * std::max(1.0, std::abs(golden)));
}

// Characterization at a tight per-step Newton tolerance; the shooting
// settings are the defaults.
const logic::RingOscCharacterization& tightOsc() {
    static const logic::RingOscCharacterization osc = [] {
        PssOptions p = logic::RingOscCharacterization::defaultPssOptions();
        p.stepNewton.absTol = 1e-12;
        return logic::RingOscCharacterization::run(ckt::RingOscSpec{}, p);
    }();
    return osc;
}

core::GaeTransientResult bitFlip(const logic::RingOscCharacterization& osc) {
    const auto d =
        logic::designSyncLatch(osc.model(), osc.outputUnknown(), testutil::kF1, 100e-6);
    const std::vector<core::GaeSegment> sched{{0.0, {d.sync(), d.dataInjection(150e-6, 1)}}};
    return core::gaeTransient(osc.model(), d.f1, sched, d.reference.phase0 + 0.02, 0.0,
                              40.0 / d.f1);
}

// 3-stage ring PSS frequency, the anchor every figure keys off.
constexpr double kF0Golden = 9598.1372332722422;

// Fig. 12 bit-flip trajectory goldens (full Newton, default tolerances),
// sampled at 5/10/20/40 reference cycles.
constexpr double kFig12Golden[4] = {0.93499029410456702, 1.0543814992272311,
                                    1.0557482238024667, 1.0557483992069741};
constexpr double kFig12Cycles[4] = {5.0, 10.0, 20.0, 40.0};

TEST(SolverStrategies, FullNewtonPssPeriodGolden) {
    expectGolden(testutil::sharedOsc().f0(), kF0Golden);
    expectGolden(1.0 / testutil::sharedOsc().f0(), 0.00010418688290197277);
}

TEST(SolverStrategies, FullNewtonFig10WaveformGolden) {
    // Fig. 10: D-latch GAE g(dphi) with SYNC = 100 uA and A_D = 30 uA
    // (bit 1) — the tilted curve just before the latch loses bistability.
    const auto& osc = testutil::sharedOsc();
    const auto d =
        logic::designSyncLatch(osc.model(), osc.outputUnknown(), testutil::kF1, 100e-6);
    const core::Gae gae(osc.model(), d.f1, {d.sync(), d.dataInjection(30e-6, 1)});
    expectGolden(gae.g(0.1), -0.011778069780167006);
    expectGolden(gae.g(0.3), -0.026310050566708227);
    expectGolden(gae.g(0.5), -0.0025343519374247713);
    expectGolden(gae.g(0.7), 0.010878095771446758);
    expectGolden(gae.g(0.9), 0.029744376512847254);
}

TEST(SolverStrategies, FullNewtonFig12TransientGolden) {
    const auto r = bitFlip(testutil::sharedOsc());
    ASSERT_TRUE(r.ok);
    for (int i = 0; i < 4; ++i)
        expectGolden(r.at(kFig12Cycles[i] / testutil::kF1), kFig12Golden[i]);
}

TEST(SolverStrategies, TightStepToleranceKeepsPssPeriod) {
    // A 1000x tighter per-step Newton tolerance moves f0 by less than 1e-9.
    expectGolden(tightOsc().f0(), kF0Golden, 1e-9);
}

TEST(SolverStrategies, TightStepToleranceKeepsFig12Transient) {
    // The trajectory amplifies the model difference by roughly an order of
    // magnitude; 5e-8 relative stays below the RKF45 relTol (1e-7) that
    // bounds the trajectory's own accuracy.
    const auto r = bitFlip(tightOsc());
    ASSERT_TRUE(r.ok);
    for (int i = 0; i < 4; ++i)
        expectGolden(r.at(kFig12Cycles[i] / testutil::kF1), kFig12Golden[i], 5e-8);
}

TEST(SolverStrategies, DefaultRingPssWorkCountersExact) {
    // The default ring PSS work (a 5-cycle warm-up, 3 shooting iterations),
    // pinned exactly.  shootingPss is called directly: a characterization
    // served from the artifact cache reports zero work.
    ckt::Netlist nl;
    ckt::buildRingOscillator(nl, "osc", ckt::RingOscSpec{});
    const ckt::Dae dae(nl);
    const PssResult pss =
        shootingPss(dae, logic::RingOscCharacterization::defaultPssOptions());
    ASSERT_TRUE(pss.ok) << pss.message;
    const num::SolverCounters& c = pss.counters;
    EXPECT_EQ(c.steps, 1950u);
    EXPECT_EQ(c.luFactorizations, 3930u);
    EXPECT_EQ(c.newtonIters, 4691u);
    EXPECT_EQ(c.rhsEvals, 4699u);
    // Counter sanity: one Jacobian per factorization at most, and at least
    // one residual evaluation per Newton iteration.
    EXPECT_LE(c.luFactorizations, c.jacEvals + c.steps);
    EXPECT_GE(c.rhsEvals, c.newtonIters);
    EXPECT_GT(c.wallSeconds, 0.0);
}

}  // namespace
}  // namespace phlogon::an
