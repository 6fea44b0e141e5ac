// Golden regression for the solver engine.
//
// The circuit analyses run one integrator, fixed-step TRAP with full Newton,
// and it must stay bit-for-bit the historical behaviour: the oscillator
// frequency was produced by the pre-workspace implementation at %.17g; the
// Fig. 10 / Fig. 12 values were re-pinned once when the PSS time origin moved
// to n1's rising mean-crossing on the converged orbit (which shifts every
// phase, not f0).  All are pinned at 1e-12 relative, like
// tests/core/test_sweep_golden.cpp, and the default ring PSS work counters
// are pinned exactly.
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

// Fig. 12 bit-flip trajectory goldens (full Newton, default tolerances),
// sampled at 5/10/20/40 reference cycles.
constexpr double kFig12Golden[4] = {0.93499029402596467, 1.0543814991909677,
                                    1.055748223766815, 1.0557483991713232};
constexpr double kFig12Cycles[4] = {5.0, 10.0, 20.0, 40.0};

TEST(SolverStrategies, FullNewtonPssPeriodGolden) {
    // 3-stage ring PSS frequency, the anchor every figure keys off.
    expectGolden(testutil::sharedOsc().f0(), 9598.1372331279654);
    expectGolden(1.0 / testutil::sharedOsc().f0(), 0.00010418688290353888);
}

TEST(SolverStrategies, FullNewtonFig10WaveformGolden) {
    // Fig. 10: D-latch GAE g(dphi) with SYNC = 100 uA and A_D = 30 uA
    // (bit 1) — the tilted curve just before the latch loses bistability.
    const auto& osc = testutil::sharedOsc();
    const auto d =
        logic::designSyncLatch(osc.model(), osc.outputUnknown(), testutil::kF1, 100e-6);
    const core::Gae gae(osc.model(), d.f1, {d.sync(), d.dataInjection(30e-6, 1)});
    expectGolden(gae.g(0.1), -0.011778069776204245);
    expectGolden(gae.g(0.3), -0.026310050579166501);
    expectGolden(gae.g(0.5), -0.0025343519250481247);
    expectGolden(gae.g(0.7), 0.010878095774702182);
    expectGolden(gae.g(0.9), 0.029744376505710709);
}

TEST(SolverStrategies, FullNewtonFig12TransientGolden) {
    const auto r = bitFlip(testutil::sharedOsc());
    ASSERT_TRUE(r.ok);
    for (int i = 0; i < 4; ++i)
        expectGolden(r.at(kFig12Cycles[i] / testutil::kF1), kFig12Golden[i]);
}

TEST(SolverStrategies, ChordMatchesFullNewtonPssPeriod) {
    // A 1000x tighter per-step Newton tolerance moves f0 by less than 1e-9.
    expectGolden(tightOsc().f0(), 9598.1372331279654, 1e-9);
}

TEST(SolverStrategies, ChordMatchesFig12TransientWithinOdeTolerance) {
    // The trajectory amplifies the model difference by roughly an order of
    // magnitude; 5e-8 relative stays below the RKF45 relTol (1e-7) that
    // bounds the trajectory's own accuracy.
    const auto r = bitFlip(tightOsc());
    ASSERT_TRUE(r.ok);
    for (int i = 0; i < 4; ++i)
        expectGolden(r.at(kFig12Cycles[i] / testutil::kF1), kFig12Golden[i], 5e-8);
}

TEST(SolverStrategies, ChordDoesFarFewerFactorizations) {
    // The default ring PSS work (15 warm-up cycles, 3 shooting iterations),
    // pinned exactly.  shootingPss is called directly: a characterization
    // served from the artifact cache reports zero work.
    ckt::Netlist nl;
    ckt::buildRingOscillator(nl, "osc", ckt::RingOscSpec{});
    const ckt::Dae dae(nl);
    const PssResult pss =
        shootingPss(dae, logic::RingOscCharacterization::defaultPssOptions());
    ASSERT_TRUE(pss.ok) << pss.message;
    const num::SolverCounters& c = pss.counters;
    EXPECT_EQ(c.steps, 3450u);
    EXPECT_EQ(c.luFactorizations, 8127u);
    EXPECT_EQ(c.newtonIters, 10388u);
    EXPECT_EQ(c.rhsEvals, 10392u);
    // Counter sanity: one Jacobian per factorization at most, and at least
    // one residual evaluation per Newton iteration.
    EXPECT_LE(c.luFactorizations, c.jacEvals + c.steps);
    EXPECT_GE(c.rhsEvals, c.newtonIters);
    EXPECT_GT(c.wallSeconds, 0.0);
}

}  // namespace
}  // namespace phlogon::an
