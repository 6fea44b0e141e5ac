#include "analysis/hb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "analysis/ppv.hpp"
#include "circuit/subckt.hpp"
#include "common/osc_fixture.hpp"

namespace phlogon::an {
namespace {

TEST(HarmonicBalance, AgreesWithShootingOnRingOscillator) {
    const auto& osc = testutil::sharedOsc();
    const PssResult hb = harmonicBalancePss(osc.dae());
    ASSERT_TRUE(hb.ok) << hb.message;
    EXPECT_NEAR(hb.f0, osc.f0(), 2e-4 * osc.f0());
    EXPECT_LT(hb.shootResidual, 1e-8);
    // The counters cover the whole run: the warm start's work (all of the
    // time steps), then one LU factorization per collocation Newton
    // iteration, and the wall time.
    const HbOptions opt;
    const WarmStart ws = warmStart(osc.dae(), opt.freqHint, opt.stepsPerCycleWarmup, opt.kick,
                                   opt.phaseUnknown, TransientOptions{}.newton);
    ASSERT_TRUE(ws.ok);
    EXPECT_GT(hb.counters.steps, 0u);
    EXPECT_EQ(hb.counters.steps, ws.counters.steps);
    ASSERT_GE(hb.counters.luFactorizations, ws.counters.luFactorizations);
    ASSERT_GE(hb.counters.newtonIters, ws.counters.newtonIters);
    const std::size_t hbLu = hb.counters.luFactorizations - ws.counters.luFactorizations;
    const std::size_t hbNewton = hb.counters.newtonIters - ws.counters.newtonIters;
    EXPECT_EQ(hbLu, hbNewton);
    EXPECT_EQ(hbNewton, static_cast<std::size_t>(hb.shootIterations));
    EXPECT_GT(hb.counters.rhsEvals, ws.counters.rhsEvals);
    EXPECT_GT(hb.counters.wallSeconds, 0.0);
}

TEST(HarmonicBalance, WaveformMatchesShooting) {
    const auto& osc = testutil::sharedOsc();
    const std::size_t idx = osc.outputUnknown();
    HbOptions opt;
    opt.phaseUnknown = static_cast<int>(idx);
    const PssResult hb = harmonicBalancePss(osc.dae(), opt);
    ASSERT_TRUE(hb.ok);
    // Align by the phase condition (both runs pin the same unknown, the
    // output, to its own mean with rising slope at t=0), then compare the
    // output waveform.
    ASSERT_EQ(hb.xs.size(), osc.pss().xs.size());
    double maxDiff = 0.0;
    for (std::size_t k = 0; k < hb.xs.size(); ++k)
        maxDiff = std::max(maxDiff, std::abs(hb.xs[k][idx] - osc.pss().xs[k][idx]));
    // Gibbs on the switching waveform bounds the agreement; a few tens of mV
    // on a 3 V swing is spectral-vs-TRAP consistency.
    EXPECT_LT(maxDiff, 0.1);
}

TEST(HarmonicBalance, SpectralAccuracyOnVanDerPol) {
    ckt::Netlist nl;
    ckt::VanDerPolSpec spec;
    ckt::buildVanDerPolOscillator(nl, "vdp", spec);
    ckt::Dae dae(nl);
    const double f0a =
        1.0 / (2.0 * std::numbers::pi * std::sqrt(spec.inductance * spec.capacitance));
    HbOptions opt;
    opt.freqHint = f0a;
    opt.kick = 0.2;
    opt.nColloc = 64;
    const PssResult hb = harmonicBalancePss(dae, opt);
    ASSERT_TRUE(hb.ok) << hb.message;
    EXPECT_NEAR(hb.f0, f0a, 2e-3 * f0a);
    EXPECT_LE(hb.shootIterations, 10);
}

TEST(HarmonicBalance, PpvExtractionWorksOnHbSolution) {
    const auto& osc = testutil::sharedOsc();
    const PssResult hb = harmonicBalancePss(osc.dae());
    ASSERT_TRUE(hb.ok);
    const PpvResult ppv = extractPpvTimeDomain(osc.dae(), hb);
    ASSERT_TRUE(ppv.ok) << ppv.message;
    EXPECT_NEAR(ppv.floquetMu, 1.0, 5e-3);
    // Fundamental PPV magnitude consistent with the shooting-based one.
    const std::size_t idx = osc.outputUnknown();
    const auto mShoot = core::PpvModel::build(osc.pss(), osc.ppv(), idx,
                                              osc.netlist().unknownNames());
    const auto mHb = core::PpvModel::build(hb, ppv, idx, osc.netlist().unknownNames());
    EXPECT_NEAR(mHb.ppvHarmonic(idx, 1), mShoot.ppvHarmonic(idx, 1),
                0.05 * mShoot.ppvHarmonic(idx, 1));
    EXPECT_NEAR(mHb.ppvHarmonic(idx, 2), mShoot.ppvHarmonic(idx, 2),
                0.10 * mShoot.ppvHarmonic(idx, 2));
}

TEST(HarmonicBalance, RejectsBadOptions) {
    const auto& osc = testutil::sharedOsc();
    HbOptions odd;
    odd.nColloc = 63;
    EXPECT_FALSE(harmonicBalancePss(osc.dae(), odd).ok);
    HbOptions tiny;
    tiny.nColloc = 4;
    EXPECT_FALSE(harmonicBalancePss(osc.dae(), tiny).ok);
}

TEST(HarmonicBalance, NonOscillatorFailsGracefully) {
    ckt::Netlist nl;
    nl.addVoltageSource("v", "a", "0", ckt::Waveform::dc(1.0));
    nl.addResistor("r", "a", "b", 1e3);
    nl.addCapacitor("c", "b", "0", 1e-9);
    ckt::Dae dae(nl);
    HbOptions opt;
    opt.freqHint = 1e5;
    const PssResult r = harmonicBalancePss(dae, opt);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.message.empty());
}

}  // namespace
}  // namespace phlogon::an
