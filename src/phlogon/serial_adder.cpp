#include "phlogon/serial_adder.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "numeric/interp.hpp"
#include "phlogon/gates.hpp"

namespace phlogon::logic {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}  // namespace

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
    const double w = PhaseDLatchOptions{}.clockWeight;
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
