#include "analysis/ppv.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/transient.hpp"
#include "core/ppv_model.hpp"
#include "analysis/waveform.hpp"
#include "circuit/subckt.hpp"
#include "common/osc_fixture.hpp"
#include "numeric/interp.hpp"

namespace phlogon::an {
namespace {

using num::Vec;

TEST(PpvTimeDomain, ExtractsPhaseMode) {
    const PpvResult& ppv = testutil::sharedOsc().ppv();
    ASSERT_TRUE(ppv.ok) << ppv.message;
    // The extracted Floquet multiplier must be ~1 (the phase mode)...
    EXPECT_NEAR(ppv.floquetMu, 1.0, 1e-3);
    // ...and the normalization invariant v^T C xs' constant over the cycle.
    EXPECT_LT(ppv.normalizationSpread, 1e-2);
}

TEST(PpvTimeDomain, ConvergesInFewSweeps) {
    EXPECT_LE(testutil::sharedOsc().ppv().sweepsUsed, 60);
}

TEST(PpvTimeDomain, RequiresPssSolution) {
    ckt::Netlist nl;
    ckt::RingOscSpec spec;
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);
    PssResult empty;
    const PpvResult r = extractPpvTimeDomain(dae, empty);
    EXPECT_FALSE(r.ok);
}

TEST(PpvFrequencyDomain, AgreesWithTimeDomain) {
    const auto& osc = testutil::sharedOsc();
    const PpvResult fd = extractPpvFrequencyDomain(osc.dae(), osc.pss());
    ASSERT_TRUE(fd.ok) << fd.message;
    const PpvResult& td = osc.ppv();
    const std::size_t idx = osc.outputUnknown();
    double scale = 0.0;
    for (std::size_t k = 0; k < td.v.size(); ++k)
        scale = std::max(scale, std::abs(td.v[k][idx]));
    ASSERT_GT(scale, 0.0);
    for (std::size_t k = 0; k < td.v.size(); ++k)
        EXPECT_NEAR(td.v[k][idx], fd.v[k][idx], 0.02 * scale) << "sample " << k;
}

TEST(Ppv, SecondHarmonicPresentForAsymmetricInverter) {
    // SHIL needs |V2| > 0; the asymmetric (unmatched N/P) inverter provides
    // it.  This is the enabling physics of the paper's latches.
    const auto& osc = testutil::sharedOsc();
    const double v1 = osc.model().ppvHarmonic(osc.outputUnknown(), 1);
    const double v2 = osc.model().ppvHarmonic(osc.outputUnknown(), 2);
    EXPECT_GT(v1, 0.0);
    EXPECT_GT(v2, 0.02 * v1);
}

TEST(Ppv, SymmetricInverterKillsEvenHarmonics) {
    // A perfectly matched inverter gives the ring half-wave symmetry: the
    // PPV's 2nd harmonic (and the SHIL locking range) collapses.
    ckt::Netlist nl;
    ckt::RingOscSpec spec;
    spec.pmos = spec.nmos;  // perfectly matched
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);
    PssOptions popt;
    popt.freqHint = 14e3;
    const PssResult pss = shootingPss(dae, popt);
    ASSERT_TRUE(pss.ok) << pss.message;
    const PpvResult ppv = extractPpvTimeDomain(dae, pss);
    ASSERT_TRUE(ppv.ok) << ppv.message;
    const auto model = core::PpvModel::build(pss, ppv,
                                             static_cast<std::size_t>(nl.findNode("osc.n1")),
                                             nl.unknownNames());
    const double v1 = model.ppvHarmonic(model.outputUnknown(), 1);
    const double v2 = model.ppvHarmonic(model.outputUnknown(), 2);
    EXPECT_LT(v2, 1e-4 * v1);
}

TEST(Ppv, PredictsPhaseShiftOfPulsePerturbedTransient) {
    // The defining property (paper eq. 3): a small current pulse injected
    // into the oscillator shifts its asymptotic phase by
    // delta_alpha = integral v_n1(t) * i(t) dt, with the sign convention
    // that positive alpha advances the waveform (events happen earlier).
    const auto& osc = testutil::sharedOsc();
    const double T = osc.pss().period;

    const double i0 = 100e-6;
    const double tOn = 2.0 * T + 0.20 * T;
    const double tOff = 2.0 * T + 0.30 * T;

    // Prediction from the macromodel: trajectory starts at xFine[0], i.e.
    // oscillator phase theta = t/T.
    double alphaPred = 0.0;
    {
        const std::size_t steps = 400;
        const auto& model = osc.model();
        for (std::size_t k = 0; k < steps; ++k) {
            const double t = tOn + (tOff - tOn) * (static_cast<double>(k) + 0.5) / steps;
            alphaPred += model.ppvAt(osc.outputUnknown(), t / T) * i0 * (tOff - tOn) / steps;
        }
    }

    // Reference and perturbed circuit-level transients.
    auto runTransient = [&](bool withPulse) {
        ckt::Netlist nl;
        ckt::RingOscSpec spec;
        ckt::buildRingOscillator(nl, "osc", spec);
        if (withPulse) {
            ckt::addCurrentInjection(
                nl, "pulse", "osc.n1",
                ckt::Waveform::custom([=](double t) { return (t >= tOn && t < tOff) ? i0 : 0.0; }));
        }
        ckt::Dae dae(nl);
        TransientOptions opt;
        opt.dt = T / 800.0;
        return transient(dae, osc.pss().xFine[0], 0.0, 8.0 * T, opt);
    };
    const TransientResult ref = runTransient(false);
    const TransientResult pert = runTransient(true);
    ASSERT_TRUE(ref.ok && pert.ok);

    const std::size_t n1 = osc.outputUnknown();
    const Vec crRef = risingCrossings(ref.t, ref.column(n1), 1.5);
    const Vec crPert = risingCrossings(pert.t, pert.column(n1), 1.5);
    ASSERT_GE(crRef.size(), 7u);
    ASSERT_EQ(crRef.size(), crPert.size());
    // Average the shift over the post-pulse crossings.  Positive alpha =
    // advanced waveform = earlier crossings.
    double shift = 0.0;
    std::size_t cnt = 0;
    for (std::size_t k = 0; k < crRef.size(); ++k) {
        if (crRef[k] < tOff + 0.5 * T) continue;
        shift += crRef[k] - crPert[k];
        ++cnt;
    }
    ASSERT_GE(cnt, 2u);
    shift /= static_cast<double>(cnt);
    EXPECT_NEAR(shift, alphaPred, 0.15 * std::abs(alphaPred) + 1e-8)
        << "predicted alpha=" << alphaPred << " measured=" << shift;
}

TEST(PpvModelBuild, ComponentAccessorsConsistent) {
    const auto& osc = testutil::sharedOsc();
    const PpvResult& ppv = osc.ppv();
    const std::size_t idx = osc.outputUnknown();
    const Vec comp = ppv.component(idx);
    ASSERT_EQ(comp.size(), ppv.v.size());
    for (std::size_t k = 0; k < comp.size(); ++k) EXPECT_DOUBLE_EQ(comp[k], ppv.v[k][idx]);
}

}  // namespace
}  // namespace phlogon::an
