#pragma once
// The paper's proof-of-concept FSM: a phase-logic serial adder (Fig. 15).
//
// Combinational full adder from majority logic
//     cout = MAJ(a, b, carry),    sum = MAJ(a, b, carry, ~cout, ~cout)
// with the carry state held in a master-slave D flip-flop made of two
// oscillator latches.  This header holds its circuit-level realization (the
// "breadboard substitute" of Sec. 5.2 / Figs. 18-20: ring oscillators,
// op-amp majority gates, calibrated phase-shift coupling networks).  The
// phase-domain realization of Sec. 4.3 / Fig. 16 is the netlist
// logic::serialAdder() (logic/workloads.hpp) lowered by compileFabric and
// decoded by decodeFabricRun (logic/compile.hpp).

#include "phlogon/encoding.hpp"
#include "phlogon/golden.hpp"
#include "phlogon/latch.hpp"

namespace phlogon::logic {

struct SerialAdderOptions {
    /// Bit-slot duration in reference cycles; each slot holds one (a, b)
    /// input pair.  CLK encodes 0 in the first half-slot (slave transparent,
    /// carry becomes available) and 1 in the second (master samples cout).
    double bitPeriodCycles = 100.0;
};

struct CircuitCouplingSpec {
    /// Transconductance of each gate-to-oscillator write path (A per volt of
    /// gate swing); total write current ~ 2 * gm * Vdd/2 when both S and R
    /// gates push the same phase.
    double gm = 50e-6 / 1.5;
};

struct SerialAdderCircuit {
    std::string aNode, bNode, clkNode, clkBarNode;
    std::string coutNode, coutBarNode, sumNode;
    std::string q1Node, q2Node;  ///< oscillator outputs (carry state)
    std::string refNode;         ///< REF waveform for 'scope comparison
    double bitPeriod = 0.0;
    std::size_t nBits = 0;
};

/// Resistive loads the FSM hangs on each oscillator latch output (two write
/// couplings plus two gate inputs).  Characterize the ring oscillator with
/// these (RingOscSpec::outputLoadsOhms) so the macromodel — and hence f1,
/// the lock phases and the coupling calibration — matches the latch as it
/// behaves inside the FSM.
std::vector<double> serialAdderLatchLoads(const CircuitCouplingSpec& coupling = {},
                                          double rf = 100e3);

/// Build the complete FSM netlist: two ring-oscillator latches with SYNC,
/// eight op-amp majority/NOT stages, phase-shift coupling networks (the
/// calibrated equivalent of the paper's inverting couplings) and
/// REF-aligned voltage sources for a, b, CLK and the constants.
/// `spec` must be the UNLOADED oscillator spec — the loads are the real
/// gates and couplings this builder instantiates (any outputLoadsOhms are
/// cleared); `design` should come from a characterization WITH
/// serialAdderLatchLoads().
SerialAdderCircuit buildSerialAdderCircuit(ckt::Netlist& nl, const SyncLatchDesign& design,
                                           const ckt::RingOscSpec& spec, Bits aBits, Bits bBits,
                                           const SerialAdderOptions& opt = {},
                                           const CircuitCouplingSpec& coupling = {});

/// Couple voltage node `from` into oscillator node `to` as an injected
/// current of magnitude |gm| * swing and phase shift `deltaCycles` at f1
/// (realized with an optional inverting stage plus a first-order RC lead or
/// lag network, gain-compensated at f1).
void buildPhaseShiftCoupling(ckt::Netlist& nl, const std::string& prefix, const std::string& from,
                             const std::string& to, const std::string& biasNode, double gm,
                             double deltaCycles, double f1, ckt::OpampParams opamp = {});

}  // namespace phlogon::logic
