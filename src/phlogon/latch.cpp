#include "phlogon/latch.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "numeric/interp.hpp"
#include "obs/trace.hpp"
#include "phlogon/encoding.hpp"

namespace phlogon::logic {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
/// Phase D latch: total write current (A) when CLK enables the latch, and
/// the S/R majority-gate soft-clip level.
constexpr double kWriteAmp = 150e-6;
constexpr double kGateClip = 0.3;
}

an::PssOptions RingOscCharacterization::defaultPssOptions() {
    an::PssOptions opt;
    opt.freqHint = 10e3;  // the paper's ring oscillator runs near 9.6 kHz
    return opt;
}

RingOscCharacterization RingOscCharacterization::run(const ckt::RingOscSpec& spec,
                                                     an::PssOptions pssOpt,
                                                     const io::ArtifactCache& cache) {
    OBS_SPAN("latch.characterize");
    RingOscCharacterization c;
    c.nl_ = std::make_unique<ckt::Netlist>();
    const ckt::RingOscNodes nodes = ckt::buildRingOscillator(*c.nl_, "osc", spec);
    c.dae_ = std::make_unique<ckt::Dae>(*c.nl_);
    c.outputUnknown_ = static_cast<std::size_t>(c.nl_->findNode(nodes.out()));
    if (pssOpt.phaseUnknown < 0) pssOpt.phaseUnknown = static_cast<int>(c.outputUnknown_);

    io::CachedCharacterization cc = io::characterizeCached(*c.dae_, *c.nl_, pssOpt, cache);
    c.cacheOutcome_ = cc.outcome;
    c.cacheKey_ = cc.key;
    c.pss_ = std::move(cc.value.pss);
    if (!c.pss_.ok)
        throw std::runtime_error("RingOscCharacterization: PSS failed: " + c.pss_.message);
    c.ppv_ = std::move(cc.value.ppv);
    if (!c.ppv_.ok)
        throw std::runtime_error("RingOscCharacterization: PPV failed: " + c.ppv_.message);
    c.model_ = core::PpvModel::build(c.pss_, c.ppv_, c.outputUnknown_, c.nl_->unknownNames());
    return c;
}

ckt::RingOscNodes buildSyncLatchCircuit(ckt::Netlist& nl, const std::string& prefix,
                                        const ckt::RingOscSpec& spec, double syncAmp, double f1) {
    const ckt::RingOscNodes nodes = ckt::buildRingOscillator(nl, prefix, spec);
    ckt::addCurrentInjection(nl, prefix + ".sync", nodes.out(),
                             ckt::Waveform::cosine(syncAmp, 2.0 * f1));
    return nodes;
}

DLatchEnCircuit buildDLatchEnCircuit(ckt::Netlist& nl, const std::string& prefix,
                                     const ckt::RingOscSpec& spec, double syncAmp, double f1,
                                     ckt::Waveform dCurrent, ckt::TimeSwitch::ControlFn en,
                                     double dRout, double ron, double roff) {
    DLatchEnCircuit out;
    out.osc = buildSyncLatchCircuit(nl, prefix, spec, syncAmp, f1);
    // D input: current source with finite output impedance on its own node,
    // coupled to n1 through the EN transmission gate.
    out.dSourceNode = prefix + ".dsrc";
    ckt::addCurrentInjection(nl, prefix + ".id", out.dSourceNode, std::move(dCurrent), dRout);
    nl.addSwitch(prefix + ".en", out.dSourceNode, out.osc.out(), std::move(en), ron, roff);
    return out;
}

PhaseLatchBus addPhaseLatchBus(core::PhaseSystem& sys, const SyncLatchDesign& design) {
    PhaseLatchBus bus;
    // SYNC drives every latch directly (amperes; gain 1).
    const double f1 = design.f1;
    const double syncAmp = design.syncAmp;
    bus.sync = sys.addExternal(
        [syncAmp, f1](double t) { return syncAmp * std::cos(kTwoPi * 2.0 * f1 * t); }, "sync");
    // Constant phase-logic levels (REF-aligned unit tones).
    bus.const0 = sys.addExternal(design.reference.refSignal(0), "const0");
    bus.const1 = sys.addExternal(design.reference.refSignal(1), "const1");
    bus.model = std::make_shared<const core::PpvModel>(design.model);
    return bus;
}

PhaseDLatch addPhaseDLatch(core::PhaseSystem& sys, const SyncLatchDesign& design,
                           const PhaseLatchBus& bus, core::PhaseSystem::SignalId d,
                           core::PhaseSystem::SignalId clk, core::PhaseSystem::SignalId clkBar,
                           const PhaseDLatchOptions& opt, const std::string& label) {
    PhaseDLatch out;
    out.latch = sys.addLatch(bus.model, label);
    out.out = sys.latchOutput(out.latch);
    sys.connect(out.latch, design.injUnknown, bus.sync, 1.0);

    // S = MAJ(D, W*CLK, W*0): passes D when CLK=1, outputs constant 0
    // otherwise (the heavy clock weight W suppresses hold-time disturbance;
    // see PhaseDLatchOptions::clockWeight).
    const double w = opt.clockWeight;
    out.sGate =
        sys.addGate({{d, 1.0}, {clk, w}, {bus.const0, w}}, false, kGateClip, label + ".S");
    // R = MAJ(D, W*~CLK, W*1): passes D when CLK=1, outputs constant 1 otherwise.
    out.rGate =
        sys.addGate({{d, 1.0}, {clkBar, w}, {bus.const1, w}}, false, kGateClip, label + ".R");

    // When CLK=1 both gates output D and add; when CLK=0 they output
    // opposite constants and cancel, leaving SHIL to hold the bit.  The
    // calibrated coupling shift turns signal phase into write phase.
    // Delaying a tone by `shift` cycles adds `shift` to its phase, which is
    // exactly the calibrated correction.
    const double shift = design.signalCouplingShift();
    // Gate outputs saturate near kGateClip; normalize so the two gates
    // together inject ~kWriteAmp when aligned.
    const double gain = kWriteAmp / (2.0 * kGateClip);
    sys.connect(out.latch, design.injUnknown, out.sGate, gain, shift);
    sys.connect(out.latch, design.injUnknown, out.rGate, gain, shift);
    return out;
}

core::Injection srGateInjection(const SyncLatchDesign& design, double gm, double gateClip,
                                double aS, int bS, double aR, int bR, double wS, double wR,
                                double wFb) {
    const double chiS = design.reference.dphiPeak - design.reference.phaseForBit(bS);
    const double chiR = design.reference.dphiPeak - design.reference.phaseForBit(bR);
    const double delta = design.signalCouplingShift();
    const double dphiPeak = design.reference.dphiPeak;

    // b(psi, dphi) = gm * clip( wS aS cos(2pi(u - chiS)) + wR aR cos(2pi(u - chiR))
    //                           + wFb * cos(2pi(u + dphi - dphiPeak)) ),  u = psi - delta
    // (the gate output is delayed by `delta` cycles on its way into the
    // injection node, adding the calibrated write-phase correction; the
    // feedback is the latch output's unit fundamental at its current phase).
    auto fn = [=](double psi, double dphi) {
        const double u = psi - delta;
        double sum = wS * aS * std::cos(kTwoPi * (u - chiS)) +
                     wR * aR * std::cos(kTwoPi * (u - chiR));
        if (wFb != 0.0) sum += wFb * std::cos(kTwoPi * (u + dphi - dphiPeak));
        if (gateClip > 0.0) sum = gateClip * std::tanh(sum / gateClip);
        return gm * sum;
    };
    return core::Injection::phaseDependent(design.injUnknown, std::move(fn), "MAJ(S,R,Q)");
}

}  // namespace phlogon::logic
