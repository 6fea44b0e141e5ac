#include "phlogon/reference.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/osc_fixture.hpp"
#include "core/gae.hpp"
#include "core/gae_sweep.hpp"

namespace phlogon::logic {
namespace {

TEST(PhaseReference, DecodeNearestLockPhase) {
    PhaseReference ref;
    ref.phase1 = 0.1;
    ref.phase0 = 0.6;
    EXPECT_EQ(ref.decode(0.12), 1);
    EXPECT_EQ(ref.decode(0.58), 0);
    EXPECT_EQ(ref.decode(0.95), 1);  // wraps toward 0.1
    EXPECT_EQ(ref.decode(1.62), 0);
}

TEST(PhaseReference, RefSignalUnitAmplitudeVersion) {
    const PhaseReference& ref = testutil::sharedDesign().reference;
    const auto s1 = ref.refSignal(1);
    const double tPeak = (ref.dphiPeak - ref.phase1) / ref.f1;
    EXPECT_NEAR(s1(tPeak), 1.0, 1e-9);
}

TEST(PhaseReference, OppositeBitsAntipodal) {
    const PhaseReference& ref = testutil::sharedDesign().reference;
    const auto s0 = ref.refSignal(0);
    const auto s1 = ref.refSignal(1);
    for (double t = 0.0; t < 2.0 / ref.f1; t += 0.05 / ref.f1)
        EXPECT_NEAR(s0(t), -s1(t), 1e-9);
}

TEST(DesignSyncLatch, ProducesBistableReference) {
    const SyncLatchDesign& d = testutil::sharedDesign();
    EXPECT_NEAR(core::phaseDistance(d.reference.phase1, d.reference.phase0), 0.5, 1e-3);
    EXPECT_EQ(d.f1, testutil::kF1);
    EXPECT_EQ(d.syncAmp, 100e-6);
}

TEST(DesignSyncLatch, DataInjectionLocksAtItsTarget) {
    // The calibrated D tone, acting alone at zero detuning, must lock the
    // oscillator exactly at the reference phase it encodes.
    const SyncLatchDesign& d = testutil::sharedDesign();
    for (int bit : {0, 1}) {
        const core::Gae gae(d.model, d.model.f0(), {d.dataInjection(50e-6, bit)});
        const auto stable = gae.stableEquilibria();
        ASSERT_EQ(stable.size(), 1u);
        EXPECT_LT(core::phaseDistance(stable[0].dphi, d.reference.phaseForBit(bit)), 2e-3)
            << "bit " << bit;
    }
}

TEST(DesignSyncLatch, CombinedSyncAndDataKeepTarget) {
    const SyncLatchDesign& d = testutil::sharedDesign();
    const core::Gae gae(d.model, d.model.f0(), {d.sync(), d.dataInjection(150e-6, 1)});
    const auto stable = gae.stableEquilibria();
    ASSERT_GE(stable.size(), 1u);
    double best = 1.0;
    for (const auto& e : stable)
        best = std::min(best, core::phaseDistance(e.dphi, d.reference.phase1));
    EXPECT_LT(best, 5e-3);
}

TEST(DesignSyncLatch, ThrowsWhenShilImpossible) {
    // A symmetric inverter ring has no PPV 2nd harmonic: SHIL cannot happen.
    ckt::Netlist nl;
    ckt::RingOscSpec spec;
    spec.pmos = spec.nmos;
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);
    an::PssOptions popt;
    popt.freqHint = 14e3;
    const an::PssResult pss = an::shootingPss(dae, popt);
    ASSERT_TRUE(pss.ok);
    const an::PpvResult ppv = an::extractPpvTimeDomain(dae, pss);
    ASSERT_TRUE(ppv.ok);
    const auto model = core::PpvModel::build(
        pss, ppv, static_cast<std::size_t>(nl.findNode("osc.n1")), nl.unknownNames());
    // With |V2| ~ 0 the locking range is essentially zero: any real detuning
    // leaves no stable SHIL phases.
    EXPECT_THROW(designSyncLatch(model, model.outputUnknown(), pss.f0 * 1.001, 100e-6),
                 std::runtime_error);
}

TEST(DesignSyncLatch, InputPhaseForRoundTrip) {
    const SyncLatchDesign& d = testutil::sharedDesign();
    // chi(target) = offset - target (mod 1).
    for (double target : {0.0, 0.2, 0.7}) {
        const double chi = d.inputPhaseFor(target);
        EXPECT_NEAR(num::wrap01(chi + target), num::wrap01(d.inputPhaseOffset), 1e-12);
    }
}

TEST(DesignSyncLatch, SignalCouplingShiftBitIndependent) {
    // Writing through the shift must target both bits correctly: verified
    // via GAE on REF-shaped injections shifted by the coupling delay.
    const SyncLatchDesign& d = testutil::sharedDesign();
    const double shift = d.signalCouplingShift();
    for (int bit : {0, 1}) {
        // REF-aligned tone for `bit`, delayed by `shift`: chi = chi_sig + shift.
        const double chiSig = d.reference.dphiPeak - d.reference.phaseForBit(bit);
        const core::Injection inj =
            core::Injection::tone(d.injUnknown, 50e-6, 1, num::wrap01(chiSig + shift));
        const core::Gae gae(d.model, d.model.f0(), {inj});
        const auto stable = gae.stableEquilibria();
        ASSERT_EQ(stable.size(), 1u);
        EXPECT_LT(core::phaseDistance(stable[0].dphi, d.reference.phaseForBit(bit)), 2e-3)
            << "bit " << bit;
    }
}

}  // namespace
}  // namespace phlogon::logic
