// Figs. 18-20 (breadboard substitute): full SPICE-level simulation of the
// serial-adder FSM — two ring-oscillator latches with SYNC, op-amp majority
// and NOT gates, calibrated phase-shift couplings, and REF-aligned voltage
// inputs — standing in for the paper's breadboard + oscilloscope.
//
// Fig. 19 shape: Q1 (master) picks up its D input around falling CLK edges,
// Q2 (slave) follows Q1 around rising edges.
// Fig. 20 shape: with the same inputs a=0, b=1 the machine produces
// sum=1/cout=0 when the stored carry is 0 and sum=0/cout=1 when it is 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>

#include "analysis/dcop.hpp"
#include "analysis/transient.hpp"
#include "common.hpp"
#include "phlogon/serial_adder.hpp"

using namespace phlogon;

namespace {

int decodeNode(const ckt::Netlist& nl, const an::TransientResult& res,
               const logic::PhaseReference& ref, const std::string& node, double tc) {
    const auto idx = static_cast<std::size_t>(nl.findNode(node));
    double corr = 0.0;
    for (int i = 0; i < 200; ++i) {
        const double t = tc - 1.0 / ref.f1 + i / 200.0 / ref.f1;
        const auto k = static_cast<std::size_t>(
            std::lower_bound(res.t.begin(), res.t.end(), t) - res.t.begin());
        const double v = res.x[std::min(k, res.t.size() - 1)][idx] - ref.vdd / 2.0;
        corr += v * std::cos(2.0 * std::numbers::pi * (ref.f1 * t - ref.dphiPeak + ref.phase1));
    }
    return corr > 0.0 ? 1 : 0;
}

}  // namespace

int main() {
    bench::banner("Figs. 18-20", "SPICE-level serial-adder FSM (breadboard substitute)");

    // Characterize the oscillator WITH the loads the FSM hangs on it; the
    // system reference frequency is the loaded oscillator's own f0.
    ckt::RingOscSpec spec;
    ckt::RingOscSpec loaded = spec;
    loaded.outputLoadsOhms = logic::serialAdderLatchLoads();
    an::PssOptions popt = logic::RingOscCharacterization::defaultPssOptions();
    popt.freqHint = 10.2e3;
    const auto osc = logic::RingOscCharacterization::run(loaded, popt);
    const auto design = logic::designSyncLatch(osc.model(), osc.outputUnknown(), osc.f0(), 300e-6);
    const auto& ref = design.reference;
    std::printf("loaded-oscillator f0 = %.2f kHz -> system f1 = %.2f kHz\n", osc.f0() / 1e3,
                ref.f1 / 1e3);

    // Input plan: reset slot, then exercise both carry states with a=0,b=1
    // (Fig. 20's snapshot): slot1 a=b=1 sets carry; slot2 (a=0,b=1,c=1);
    // slot3 clears (a=b=0); slot4 (a=0,b=1,c=0).
    const logic::Bits a{0, 1, 0, 0, 0}, b{0, 1, 1, 0, 1};

    ckt::Netlist nl;
    logic::SerialAdderOptions opt;
    opt.bitPeriodCycles = 80;
    const auto sc = logic::buildSerialAdderCircuit(nl, design, spec, a, b, opt);
    std::printf("netlist: %zu unknowns, %zu devices\n", nl.size(), nl.devices().size());

    ckt::Dae dae(nl);
    const an::DcopResult dc = an::dcOperatingPoint(dae);
    if (!dc.ok) {
        std::printf("dcop failed: %s\n", dc.message.c_str());
        return 1;
    }
    num::Vec x0 = dc.x;
    for (const char* n : {"lat1.n1", "lat1.n2", "lat1.n3"})
        x0[static_cast<std::size_t>(nl.findNode(n))] += 0.4;
    for (const char* n : {"lat2.n2", "lat2.n3"})
        x0[static_cast<std::size_t>(nl.findNode(n))] -= 0.4;
    an::TransientOptions topt;
    topt.dt = 1.0 / (ref.f1 * 200.0);
    topt.storeEvery = 4;
    const an::TransientResult res = an::transient(dae, x0, 0.0, a.size() * sc.bitPeriod, topt);
    if (!res.ok) {
        std::printf("transient failed: %s\n", res.message.c_str());
        return 1;
    }

    // Fig. 19: master/slave handoff per half slot.
    std::printf("\nFig. 19 — DFF behaviour (decode per half slot):\n");
    std::printf("t/slot | CLK | cout q1 q2\n");
    std::printf("-------+-----+-----------\n");
    bool dffOk = true;
    for (std::size_t h = 1; h < 2 * a.size(); ++h) {
        const double tc = (0.45 + 0.5 * static_cast<double>(h)) * sc.bitPeriod;
        const int clk = decodeNode(nl, res, ref, sc.clkNode, tc);
        const int cout = decodeNode(nl, res, ref, sc.coutNode, tc);
        const int q1 = decodeNode(nl, res, ref, sc.q1Node, tc);
        const int q2 = decodeNode(nl, res, ref, sc.q2Node, tc);
        std::printf("%6.2f | %3d | %4d %2d %2d\n", 0.45 + 0.5 * h, clk, cout, q1, q2);
        if (clk == 1 && q1 != cout) dffOk = false;  // master transparent
        if (clk == 0 && q2 != q1) dffOk = false;    // slave transparent
    }

    // Fig. 20 + arithmetic check against golden with the decoded wake-up
    // carry.
    const int carry0 = decodeNode(nl, res, ref, sc.q2Node, 0.45 * sc.bitPeriod);
    logic::Bits gc;
    const logic::Bits gs = logic::goldenSerialAdd(a, b, carry0, &gc);
    std::printf("\nFig. 20 — adder outputs (wake-up carry decoded as %d):\n", carry0);
    std::printf("slot | a b carry | sum cout | golden\n");
    std::printf("-----+-----------+----------+-------\n");
    bool addOk = true;
    int carry = carry0;
    for (std::size_t k = 0; k < a.size(); ++k) {
        const double tc = (static_cast<double>(k) + 0.45) * sc.bitPeriod;
        const int sum = decodeNode(nl, res, ref, sc.sumNode, tc);
        const int cout = decodeNode(nl, res, ref, sc.coutNode, tc);
        std::printf("%4zu | %d %d   %d   |  %d   %d   |  %d %d\n", k, a[k], b[k], carry, sum,
                    cout, gs[k], gc[k]);
        addOk = addOk && sum == gs[k] && cout == gc[k];
        carry = gc[k];
    }

    std::printf("\n");
    bench::paperVsMeasured("Q1 follows cout while CLK=1, Q2 follows Q1 while CLK=0",
                           "yes (scope, Fig. 19)", dffOk ? "yes" : "NO");
    bench::paperVsMeasured("a=0,b=1: sum=1/cout=0 at carry=0; sum=0/cout=1 at carry=1",
                           "yes (scope, Fig. 20)", addOk ? "yes" : "NO");
    std::printf("\n");

    // Export a short oscilloscope-style window: REF, Q1, Q2 over 4 cycles.
    viz::Chart scope("Figs. 19/20 — 'oscilloscope' window (REF, Q1, Q2)", "t (cycles)",
                     "V");
    // Both ends fall on stored samples; a half-sample margin keeps each of
    // them in the window whatever the rounding of the stored times.
    const double tw0 = 1.6 * sc.bitPeriod;
    const double margin = 0.5 * topt.dt * static_cast<double>(topt.storeEvery);
    num::Vec tx, vr, v1, v2;
    for (std::size_t i = 0; i < res.t.size(); ++i) {
        if (res.t[i] < tw0 - margin || res.t[i] > tw0 + 4.0 / ref.f1 + margin) continue;
        tx.push_back(res.t[i] * ref.f1);
        vr.push_back(res.x[i][static_cast<std::size_t>(nl.findNode(sc.refNode))]);
        v1.push_back(res.x[i][static_cast<std::size_t>(nl.findNode(sc.q1Node))]);
        v2.push_back(res.x[i][static_cast<std::size_t>(nl.findNode(sc.q2Node))]);
    }
    scope.add("REF", tx, vr);
    scope.add("Q1", tx, v1);
    scope.add("Q2", tx, v2);
    bench::showChart(scope, "fig19_20_scope");
    return (dffOk && addOk) ? 0 : 1;
}
