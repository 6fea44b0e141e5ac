#include "phlogon/reference.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/gae_sweep.hpp"
#include "numeric/interp.hpp"
#include "obs/trace.hpp"

namespace phlogon::logic {

int PhaseReference::decode(double dphi) const {
    return core::phaseDistance(dphi, phase1) <= core::phaseDistance(dphi, phase0) ? 1 : 0;
}

std::function<double(double)> PhaseReference::refSignal(int bit) const {
    const double ph = dphiPeak - phaseForBit(bit);
    const double f = f1;
    return [f, ph](double t) { return std::cos(2.0 * std::numbers::pi * (f * t - ph)); };
}

Injection SyncLatchDesign::sync() const {
    return Injection::tone(injUnknown, syncAmp, 2, 0.0, "SYNC");
}

double SyncLatchDesign::inputPhaseFor(double targetDphi) const {
    // A unit tone cos(2 pi (psi - chi)) locks at dphi* = inputPhaseOffset - chi
    // (delaying the input delays the oscillator), so chi = offset - target.
    return num::wrap01(inputPhaseOffset - targetDphi);
}

Injection SyncLatchDesign::dataInjection(double amp, int bit) const {
    return Injection::tone(injUnknown, amp, 1, inputPhaseFor(reference.phaseForBit(bit)),
                           bit ? "D=1" : "D=0");
}

double SyncLatchDesign::signalCouplingShift() const {
    // A REF-aligned signal for bit b (and equally a latch output storing b)
    // carries tone phase chi_sig = dphiPeak - phase_b; writing bit b needs
    // chi_b = offset - phase_b.  The required extra delay is the
    // bit-independent  offset - dphiPeak.
    return num::wrap01(inputPhaseOffset - reference.dphiPeak);
}

SyncLatchDesign designSyncLatch(PpvModel model, std::size_t injUnknown, double f1, double syncAmp,
                                double vdd) {
    OBS_SPAN("latch.design");
    SyncLatchDesign d;
    d.injUnknown = injUnknown;
    d.f1 = f1;
    d.syncAmp = syncAmp;

    // SHIL lock phases from the SYNC-only GAE.
    const core::Gae shil(model, f1, {Injection::tone(injUnknown, syncAmp, 2, 0.0, "SYNC")});
    const auto stable = shil.stableEquilibria();
    if (stable.size() != 2)
        throw std::runtime_error("designSyncLatch: SHIL yields " + std::to_string(stable.size()) +
                                 " stable phases (need 2); adjust SYNC amplitude/detuning");
    d.reference.f1 = f1;
    d.reference.vdd = vdd;
    d.reference.dphiPeak = model.dphiPeak();
    d.reference.phase1 = stable[0].dphi;
    d.reference.phase0 = stable[1].dphi;

    // Input calibration: lock phase of a unit fundamental tone, zero phase,
    // zero detuning (f1 = f0 so the calibration is intrinsic to the PPV).
    const core::Gae unit(model, model.f0(), {Injection::tone(injUnknown, 1.0, 1, 0.0, "unit")});
    const auto unitStable = unit.stableEquilibria();
    if (unitStable.size() != 1)
        throw std::runtime_error("designSyncLatch: unit-tone GAE has no unique stable lock");
    d.inputPhaseOffset = unitStable[0].dphi;

    d.model = std::move(model);
    return d;
}

}  // namespace phlogon::logic
