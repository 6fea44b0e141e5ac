#include "phlogon/serial_adder.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "numeric/interp.hpp"
#include "phlogon/gates.hpp"

namespace phlogon::logic {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// CLK bit stream: 0 for the first half of each bit slot (slave transfers the
/// previous carry), 1 for the second half (master samples the new cout).
Bits clockBits(std::size_t nBits) {
    Bits clk;
    clk.reserve(2 * nBits);
    for (std::size_t k = 0; k < nBits; ++k) {
        clk.push_back(0);
        clk.push_back(1);
    }
    return clk;
}

Bits invertBits(const Bits& b) {
    Bits out;
    out.reserve(b.size());
    for (int x : b) out.push_back(notBit(x));
    return out;
}
}  // namespace

PhaseSerialAdder buildPhaseSerialAdder(core::PhaseSystem& sys, const SyncLatchDesign& design,
                                       Bits aBits, Bits bBits, const SerialAdderOptions& opt) {
    if (aBits.size() != bBits.size() || aBits.empty())
        throw std::invalid_argument("buildPhaseSerialAdder: bad bit streams");
    PhaseSerialAdder sa;
    sa.nBits = aBits.size();
    sa.bitPeriod = opt.bitPeriodCycles / design.f1;
    const PhaseReference& ref = design.reference;

    sa.a = sys.addExternal(dataSignal(ref, std::move(aBits), sa.bitPeriod), "a");
    sa.b = sys.addExternal(dataSignal(ref, std::move(bBits), sa.bitPeriod), "b");
    const Bits clk = clockBits(sa.nBits);
    sa.clk = sys.addExternal(dataSignal(ref, clk, sa.bitPeriod / 2.0), "clk");
    sa.clkBar = sys.addExternal(dataSignal(ref, invertBits(clk), sa.bitPeriod / 2.0), "clkBar");

    // Carry flip-flop clocked by CLK; its D input is cout, which is built
    // afterwards (it needs the carry), so a placeholder closes the loop.
    const auto coutFwd = sys.addPlaceholder("cout.fwd");
    sa.dff = addPhaseDff(sys, design, coutFwd, sa.clk, sa.clkBar, opt.latch, "carry");
    sa.carry = sa.dff.q2;

    const auto coutRaw = addMajorityGate(sys, {{sa.a, 1.0}, {sa.b, 1.0}, {sa.carry, 1.0}},
                                         opt.gateClip, "cout.raw");
    // Renormalize to unit amplitude: the sum identity below nearly cancels
    // for (a,b,c) = (1,1,0)/(0,0,1) and is sensitive to amplitude mismatch.
    // The worst case (2:1 input split) leaves the clipped gate a unit
    // resultant, so normalize against refAmp = 1.
    sa.cout = addUnitNormalizer(sys, coutRaw, 1.0, opt.gateClip, "cout");
    sys.bindPlaceholder(coutFwd, sa.cout);
    sa.coutBar = addNotGate(sys, sa.cout, "coutBar");
    // sum = MAJ(a, b, carry, ~cout, ~cout); the double-weighted inverted
    // carry-out realizes the 3-input XOR.
    sa.sum = addMajorityGate(
        sys, {{sa.a, 1.0}, {sa.b, 1.0}, {sa.carry, 1.0}, {sa.coutBar, 2.0}}, opt.gateClip, "sum");
    return sa;
}

num::Vec dphiAt(const core::PhaseSystem::Result& res, double t) {
    const std::size_t k = res.dphi.size();
    num::Vec out(k, 0.0);
    if (res.t.empty()) return out;
    if (t <= res.t.front()) {
        for (std::size_t i = 0; i < k; ++i) out[i] = res.dphi[i].front();
        return out;
    }
    if (t >= res.t.back()) {
        for (std::size_t i = 0; i < k; ++i) out[i] = res.dphi[i].back();
        return out;
    }
    const auto it = std::upper_bound(res.t.begin(), res.t.end(), t);
    const std::size_t j = static_cast<std::size_t>(it - res.t.begin());
    const double dt = res.t[j] - res.t[j - 1];
    const double f = dt > 0 ? (t - res.t[j - 1]) / dt : 0.0;
    for (std::size_t i = 0; i < k; ++i)
        out[i] = res.dphi[i][j - 1] + f * (res.dphi[i][j] - res.dphi[i][j - 1]);
    return out;
}

int decodeSignalBit(const core::PhaseSystem& sys, core::PhaseSystem::SignalId sig,
                    const PhaseReference& ref, double tCenter, const num::Vec& dphiAtT) {
    // Correlate one reference cycle of the signal against REF(bit=1).
    const core::PhaseSystem::Program prog(sys, {sig});
    std::vector<double> values;
    const double t1cyc = 1.0 / ref.f1;
    const std::size_t n = 64;
    double corr = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = tCenter - 0.5 * t1cyc + t1cyc * static_cast<double>(i) / n;
        const double r1 =
            std::cos(kTwoPi * (ref.f1 * t - ref.dphiPeak + ref.phase1));
        prog.eval(t, ref.f1, dphiAtT, values);
        corr += values.at(static_cast<std::size_t>(sig)) * r1;
    }
    return corr >= 0.0 ? 1 : 0;
}

std::pair<Bits, Bits> decodeSerialAdderRun(const core::PhaseSystem& sys,
                                           const PhaseSerialAdder& adder,
                                           const core::PhaseSystem::Result& res,
                                           const PhaseReference& ref) {
    Bits sums, couts;
    for (std::size_t k = 0; k < adder.nBits; ++k) {
        const double t = (static_cast<double>(k) + 0.45) * adder.bitPeriod;
        const num::Vec ph = dphiAt(res, t);
        sums.push_back(decodeSignalBit(sys, adder.sum, ref, t, ph));
        couts.push_back(decodeSignalBit(sys, adder.cout, ref, t, ph));
    }
    return {std::move(sums), std::move(couts)};
}

void buildPhaseShiftCoupling(ckt::Netlist& nl, const std::string& prefix, const std::string& from,
                             const std::string& to, const std::string& biasNode, double gm,
                             double deltaCycles, double f1, ckt::OpampParams opamp) {
    if (!(gm > 0)) throw std::invalid_argument("buildPhaseShiftCoupling: gm must be positive");
    const double omega = kTwoPi * f1;
    double d = num::wrap01(deltaCycles);
    if (d > 0.5) d -= 1.0;  // (-0.5, 0.5]

    std::string src = from;
    if (std::abs(d) > 0.25) {
        // Inversion supplies half a cycle; the RC network trims the rest.
        const std::string inv = prefix + ".inv";
        buildNotGateCircuit(nl, prefix + ".not", src, inv, biasNode, 100e3, opamp);
        src = inv;
        d += (d > 0) ? -0.5 : 0.5;
    }

    // The phase network runs at the low-impedance gate output and is
    // followed by a unity buffer, so the oscillator only ever sees the
    // resistive write path (a reactive load on the injection node would
    // detune the oscillator out of its locking range).
    double gainAtF1 = 1.0;
    if (std::abs(d) < 0.015) {
        // Negligible residual: no network needed.
    } else if (d > 0) {
        // Delay (phase lag): first-order RC low-pass, |H| = cos(phi).
        const double phi = kTwoPi * d;
        const std::string x = prefix + ".lp";
        const double rf = 10e3;
        const double cf = std::tan(phi) / (omega * rf);
        nl.addResistor(prefix + ".rf", src, x, rf);
        nl.addCapacitor(prefix + ".cf", x, biasNode, cf);
        src = x;
        gainAtF1 = std::cos(phi);
    } else {
        // Advance (phase lead): series-C / shunt-R high-pass,
        // H = jwCR/(1+jwCR), lead = pi/2 - atan(wCR), |H| = cos(lead).
        const double phi = -kTwoPi * d;
        const std::string x = prefix + ".hp";
        const double c = 1e-9;
        const double r = 1.0 / (std::tan(phi) * omega * c);
        nl.addCapacitor(prefix + ".cs", src, x, c);
        nl.addResistor(prefix + ".rb", x, biasNode, r);
        src = x;
        gainAtF1 = std::cos(phi);
    }
    if (src != from) {
        const std::string buf = prefix + ".buf";
        nl.addOpamp(prefix + ".op", src, buf, buf, opamp);  // unity follower
        src = buf;
    }
    // Gain-compensated resistive write path.
    nl.addResistor(prefix + ".rc", src, to, gainAtF1 / gm);
}

std::vector<double> serialAdderLatchLoads(const CircuitCouplingSpec& coupling, double rf) {
    return {1.0 / coupling.gm, 1.0 / coupling.gm, rf, rf};
}

SerialAdderCircuit buildSerialAdderCircuit(ckt::Netlist& nl, const SyncLatchDesign& design,
                                           const ckt::RingOscSpec& spec, Bits aBits, Bits bBits,
                                           const SerialAdderOptions& opt,
                                           const CircuitCouplingSpec& coupling) {
    if (aBits.size() != bBits.size() || aBits.empty())
        throw std::invalid_argument("buildSerialAdderCircuit: bad bit streams");
    SerialAdderCircuit sc;
    sc.nBits = aBits.size();
    const double f1 = design.f1;
    sc.bitPeriod = opt.bitPeriodCycles / f1;
    const PhaseReference& ref = design.reference;

    ckt::addSupply(nl, "vdd", ref.vdd);
    ckt::addSupply(nl, "vmid", ref.vdd / 2.0);

    // Two oscillator latches with SYNC (master = carry capture, slave =
    // carry output).  The real loads are the gates and couplings added
    // below, so any characterization-time load stand-ins are dropped.
    ckt::RingOscSpec oscSpec = spec;
    oscSpec.vddNode = "vdd";
    oscSpec.outputLoadsOhms.clear();
    const auto osc1 = buildSyncLatchCircuit(nl, "lat1", oscSpec, design.syncAmp, f1);
    const auto osc2 = buildSyncLatchCircuit(nl, "lat2", oscSpec, design.syncAmp, f1);
    sc.q1Node = osc1.out();
    sc.q2Node = osc2.out();

    // Phase-encoded voltage inputs and constants (eq. 8/9 waveforms).
    sc.aNode = "a";
    sc.bNode = "b";
    sc.clkNode = "clk";
    sc.clkBarNode = "clkb";
    nl.addVoltageSource("Va", sc.aNode, "0", dataVoltageWaveform(ref, aBits, sc.bitPeriod));
    nl.addVoltageSource("Vb", sc.bNode, "0", dataVoltageWaveform(ref, bBits, sc.bitPeriod));
    const Bits clk = clockBits(sc.nBits);
    nl.addVoltageSource("Vclk", sc.clkNode, "0",
                        dataVoltageWaveform(ref, clk, sc.bitPeriod / 2.0));
    nl.addVoltageSource("Vclkb", sc.clkBarNode, "0",
                        dataVoltageWaveform(ref, invertBits(clk), sc.bitPeriod / 2.0));
    nl.addVoltageSource("Vc0", "const0", "0", dataVoltageWaveform(ref, {0}, 1.0));
    nl.addVoltageSource("Vc1", "const1", "0", dataVoltageWaveform(ref, {1}, 1.0));
    sc.refNode = "const1";  // REF (logic 1) trace for the 'scope

    // Combinational full adder.
    sc.coutNode = "cout";
    sc.coutBarNode = "coutb";
    sc.sumNode = "sum";
    buildMajorityGateCircuit(
        nl, "gcout", {{sc.aNode, 1.0}, {sc.bNode, 1.0}, {sc.q2Node, 1.0}}, sc.coutNode, "vmid");
    buildNotGateCircuit(nl, "gcoutb", sc.coutNode, sc.coutBarNode, "vmid");
    buildMajorityGateCircuit(nl, "gsum",
                             {{sc.aNode, 1.0},
                              {sc.bNode, 1.0},
                              {sc.q2Node, 1.0},
                              {sc.coutBarNode, 2.0}},
                             sc.sumNode, "vmid");

    // Carry DFF: master latch writes cout while CLK=1, slave copies master
    // while CLK=0.  Gate outputs couple into the oscillator injection nodes
    // through the calibrated phase-shift networks.  As in the phase-domain
    // latch, CLK and the constants carry a heavy weight W so an in-transit
    // data input cannot deflect a holding gate's output phase (see
    // PhaseDLatchOptions::clockWeight).
    const double shift = design.signalCouplingShift();
    const double w = opt.latch.clockWeight;
    buildMajorityGateCircuit(nl, "gs1",
                             {{sc.coutNode, 1.0}, {sc.clkNode, w}, {"const0", w}}, "s1",
                             "vmid");
    buildMajorityGateCircuit(nl, "gr1",
                             {{sc.coutNode, 1.0}, {sc.clkBarNode, w}, {"const1", w}}, "r1",
                             "vmid");
    buildPhaseShiftCoupling(nl, "cps1", "s1", sc.q1Node, "vmid", coupling.gm, shift, f1);
    buildPhaseShiftCoupling(nl, "cpr1", "r1", sc.q1Node, "vmid", coupling.gm, shift, f1);

    buildMajorityGateCircuit(nl, "gs2",
                             {{sc.q1Node, 1.0}, {sc.clkBarNode, w}, {"const0", w}}, "s2",
                             "vmid");
    buildMajorityGateCircuit(nl, "gr2",
                             {{sc.q1Node, 1.0}, {sc.clkNode, w}, {"const1", w}}, "r2",
                             "vmid");
    buildPhaseShiftCoupling(nl, "cps2", "s2", sc.q2Node, "vmid", coupling.gm, shift, f1);
    buildPhaseShiftCoupling(nl, "cpr2", "r2", sc.q2Node, "vmid", coupling.gm, shift, f1);
    return sc;
}

}  // namespace phlogon::logic
