#include "phlogon/latch.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/osc_fixture.hpp"
#include "core/gae_sweep.hpp"
#include "phlogon/encoding.hpp"
#include "phlogon/gates.hpp"

namespace phlogon::logic {
namespace {

TEST(RingOscCharacterization, PipelineProducesValidModel) {
    const auto& osc = testutil::sharedOsc();
    EXPECT_TRUE(osc.pss().ok);
    EXPECT_TRUE(osc.ppv().ok);
    EXPECT_TRUE(osc.model().valid());
    EXPECT_EQ(osc.model().unknownNames()[osc.outputUnknown()], "osc.n1");
}

TEST(BuildSyncLatchCircuit, AddsSyncSource) {
    ckt::Netlist nl;
    const auto nodes = buildSyncLatchCircuit(nl, "lat", ckt::RingOscSpec{}, 100e-6, 9.6e3);
    EXPECT_EQ(nodes.out(), "lat.n1");
    EXPECT_NE(nl.findDevice("lat.sync"), nullptr);
}

TEST(BuildDLatchEnCircuit, TopologyComplete) {
    ckt::Netlist nl;
    const auto latch = buildDLatchEnCircuit(nl, "dl", ckt::RingOscSpec{}, 100e-6, 9.6e3,
                                            ckt::Waveform::dc(0.0), [](double) { return true; });
    EXPECT_NE(nl.findDevice("dl.sync"), nullptr);
    EXPECT_NE(nl.findDevice("dl.id"), nullptr);
    EXPECT_NE(nl.findDevice("dl.en"), nullptr);
    EXPECT_NE(nl.findDevice("dl.id.rout"), nullptr);
    EXPECT_EQ(latch.dSourceNode, "dl.dsrc");
}

class PhaseDLatchCase : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PhaseDLatchCase, TruthTable) {
    // (initial Q, D, CLK) -> expected Q after one write window.
    const auto [q0, dBit, clkBit] = GetParam();
    const auto& d = testutil::sharedFsmDesign();
    const auto& ref = d.reference;
    core::PhaseSystem sys;
    const auto dSig = sys.addExternal(dataSignal(ref, {dBit}, 1.0));
    const auto clkSig = sys.addExternal(dataSignal(ref, {clkBit}, 1.0));
    const auto clkBarSig = sys.addExternal(dataSignal(ref, {notBit(clkBit)}, 1.0));
    addPhaseDLatch(sys, d, addPhaseLatchBus(sys, d), dSig, clkSig, clkBarSig);
    const auto r =
        sys.simulate(d.f1, 0.0, 50.0 / d.f1, num::Vec{ref.phaseForBit(q0) + 0.02});
    ASSERT_TRUE(r.ok);
    const int expected = clkBit ? dBit : q0;
    EXPECT_EQ(ref.decode(r.dphi[0].back()), expected)
        << "q0=" << q0 << " D=" << dBit << " CLK=" << clkBit;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, PhaseDLatchCase,
                         ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 1),
                                            ::testing::Values(0, 1)));

TEST(PhaseDLatch, HoldPhaseDeviationSmall) {
    // While holding against an adversarial D, the lock phase must stay close
    // to its reference (the residue shifts it but must not defeat decode).
    const auto& d = testutil::sharedFsmDesign();
    const auto& ref = d.reference;
    core::PhaseSystem sys;
    const auto dSig = sys.addExternal(dataSignal(ref, {1}, 1.0));
    const auto clkSig = sys.addExternal(dataSignal(ref, {0}, 1.0));
    const auto clkBarSig = sys.addExternal(dataSignal(ref, {1}, 1.0));
    addPhaseDLatch(sys, d, addPhaseLatchBus(sys, d), dSig, clkSig, clkBarSig);
    const auto r = sys.simulate(d.f1, 0.0, 60.0 / d.f1, num::Vec{ref.phase0 + 0.01});
    ASSERT_TRUE(r.ok);
    EXPECT_LT(core::phaseDistance(r.dphi[0].back(), ref.phase0), 0.08);
}

TEST(PhaseDLatch, LatchesShareOneBus) {
    // Latches on one bus share its SYNC and constant externals and its one
    // model copy: each adds only its output and its S and R gates.
    const auto& d = testutil::sharedFsmDesign();
    core::PhaseSystem sys;
    const auto dSig = sys.addExternal(d.reference.refSignal(1));
    const auto clk = sys.addExternal(d.reference.refSignal(1));
    const auto clkBar = sys.addExternal(d.reference.refSignal(0));
    const PhaseLatchBus bus = addPhaseLatchBus(sys, d);
    const std::size_t before = sys.signalCount();
    const PhaseDLatch first = addPhaseDLatch(sys, d, bus, dSig, clk, clkBar);
    EXPECT_EQ(sys.signalCount(), before + 3);
    addPhaseDLatch(sys, d, bus, first.out, clkBar, clk);
    EXPECT_EQ(sys.signalCount(), before + 6);
    ASSERT_EQ(sys.latchCount(), 2u);
    EXPECT_EQ(&sys.latchModel(0), &sys.latchModel(1));
    EXPECT_EQ(&sys.latchModel(0), bus.model.get());
}

TEST(SrGateInjection, EqualSameBitInputsWriteTheBit) {
    // Fig. 13/14: S and R encoding the same value flip the latch to it.
    const auto& d = testutil::sharedDesign();
    for (int bit : {0, 1}) {
        const core::Injection maj =
            srGateInjection(d, 300e-6, 0.5, 1.0, bit, 1.0, bit, 1.0, 1.0, 1.0);
        const core::Gae gae(d.model, d.f1, {d.sync(), maj}, 512);
        const auto stable = gae.stableEquilibria();
        ASSERT_GE(stable.size(), 1u);
        // The surviving stable phase must be near the written bit.
        double best = 1.0;
        for (const auto& e : stable)
            best = std::min(best, core::phaseDistance(e.dphi, d.reference.phaseForBit(bit)));
        EXPECT_LT(best, 0.05) << "bit " << bit;
        // And the opposite state must be gone (monostable write).
        bool oppositeSurvives = false;
        for (const auto& e : stable)
            if (core::phaseDistance(e.dphi, d.reference.phaseForBit(notBit(bit))) < 0.1)
                oppositeSurvives = true;
        EXPECT_FALSE(oppositeSurvives);
    }
}

TEST(SrGateInjection, OppositeEqualInputsCancelAndHold) {
    const auto& d = testutil::sharedDesign();
    const core::Injection maj =
        srGateInjection(d, 300e-6, 0.5, 1.0, 1, 1.0, 0, 0.01, 0.01, 1.0);
    const core::Gae gae(d.model, d.f1, {d.sync(), maj}, 512);
    // Both SHIL states survive: the latch holds whatever it stored.
    const auto stable = gae.stableEquilibria();
    ASSERT_EQ(stable.size(), 2u);
    EXPECT_LT(core::phaseDistance(stable[0].dphi, d.reference.phase1), 0.06);
    EXPECT_LT(core::phaseDistance(stable[1].dphi, d.reference.phase0), 0.06);
}

TEST(SrGateInjection, SmallWeightsTolerateMismatch) {
    // The paper's Fig. 14 design insight: with w_S = w_R = 0.01 a large S/R
    // magnitude mismatch must NOT flip the latch...
    const auto& d = testutil::sharedDesign();
    const core::Injection weak =
        srGateInjection(d, 300e-6, 0.5, 1.0, 1, 0.4, 0, 0.01, 0.01, 1.0);
    const core::Gae gWeak(d.model, d.f1, {d.sync(), weak}, 512);
    EXPECT_EQ(gWeak.stableEquilibria().size(), 2u);  // still bistable: holds

    // ...while with unit weights the same mismatch destroys one state.
    const core::Injection strong =
        srGateInjection(d, 300e-6, 0.5, 1.0, 1, 0.4, 0, 1.0, 1.0, 1.0);
    const core::Gae gStrong(d.model, d.f1, {d.sync(), strong}, 512);
    EXPECT_LT(gStrong.stableEquilibria().size(), 2u);
}

}  // namespace
}  // namespace phlogon::logic
