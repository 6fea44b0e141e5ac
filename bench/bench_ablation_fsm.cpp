// Ablation: the FSM-robustness design choices this reproduction surfaced.
//
//   (a) clock weight W in the D-latch majority gates — W >> 1 suppresses the
//       output-phase deflection an in-transit data input imposes on a
//       holding gate (the residue that flips the slave while the master
//       moves);
//   (b) SYNC amplitude — sets the SHIL hold barrier the gate residues must
//       not exceed;
//   (c) coupling-phase calibration — how much deliberate miscalibration of
//       the gate-to-oscillator phase shift the write path tolerates.
//
// Metric: DFF correctness over a 5-bit pattern (master samples D, slave
// delays one slot), using the phase-domain simulator.

#include <cstdio>

#include "common.hpp"
#include "core/gae_sweep.hpp"
#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "phlogon/golden.hpp"

using namespace phlogon;

namespace {

/// Run a DFF over a test pattern; returns correct-slot count out of total.
std::pair<int, int> dffScore(const logic::SyncLatchDesign& d,
                             const logic::PhaseDLatchOptions& lo, double couplingErrorCycles) {
    const auto& ref = d.reference;
    const double bitT = 50.0 / d.f1;
    const logic::Bits dBits{1, 0, 1, 1, 0};
    const logic::Bits clkBits = logic::clockBits(dBits.size());

    core::PhaseSystem sys;
    const auto dSig = sys.addExternal(logic::dataSignal(ref, dBits, bitT));
    const auto clk = sys.addExternal(logic::dataSignal(ref, clkBits, bitT / 2.0));
    const auto clkBar =
        sys.addExternal(logic::dataSignal(ref, logic::invertBits(clkBits), bitT / 2.0));
    // Inject the calibration error by biasing the design's coupling shift:
    // addPhaseDLatch reads signalCouplingShift() from the design, so emulate
    // the error by shifting the D input itself.
    const auto dShifted =
        couplingErrorCycles != 0.0
            ? sys.addExternal([f = logic::dataSignal(ref, dBits, bitT), e = couplingErrorCycles,
                               f1 = d.f1](double t) { return f(t - e / f1); })
            : dSig;
    logic::addPhaseDff(sys, d, logic::addPhaseLatchBus(sys, d), dShifted, clk, clkBar, lo);
    const auto res = sys.simulate(d.f1, 0.0, dBits.size() * bitT,
                                  num::Vec{ref.phase0 + 0.02, ref.phase0 + 0.02}, 64, 16);
    if (!res.ok) return {0, static_cast<int>(2 * dBits.size() - 1)};

    int good = 0, total = 0;
    for (std::size_t k = 0; k < dBits.size(); ++k) {
        // Master holds D(k) at the end of slot k.
        const auto phEnd = logic::dphiAt(res, (static_cast<double>(k) + 0.95) * bitT);
        ++total;
        if (ref.decode(phEnd[0]) == dBits[k]) ++good;
        // Slave holds D(k-1) mid-slot k.
        if (k > 0) {
            const auto phMid = logic::dphiAt(res, (static_cast<double>(k) + 0.45) * bitT);
            ++total;
            if (ref.decode(phMid[1]) == dBits[k - 1]) ++good;
        }
    }
    return {good, total};
}

}  // namespace

int main() {
    bench::banner("Ablation (FSM)", "clock weight, SYNC barrier, coupling calibration");
    const auto& osc = bench::osc1n1p();

    // (a) x (b): clock weight vs SYNC amplitude, scored on the closed-loop
    // serial adder (the carry feedback loop is what exposes hold-time
    // disturbances; an isolated DFF passes even at weak settings).
    std::printf("serial-adder wrong sum/cout slots (of 10) vs clockWeight W and SYNC:\n");
    std::printf("  W \\ sync |  100uA  200uA  300uA\n");
    std::printf("  ---------+----------------------\n");
    const logic::Bits aBits{0, 1, 1, 1, 1}, bBits{0, 1, 0, 0, 0};  // carry chain
    std::vector<std::vector<int>> slots;
    for (std::size_t k = 0; k < aBits.size(); ++k) slots.push_back({aBits[k], bBits[k]});
    for (double w : {1.0, 2.0, 4.0, 8.0}) {
        std::printf("  %8.0f |", w);
        for (double sync : {100e-6, 200e-6, 300e-6}) {
            const auto d =
                logic::designSyncLatch(osc.model(), osc.outputUnknown(), bench::kF1, sync);
            logic::FabricCompileOptions opt;
            opt.latch.clockWeight = w;
            const auto fab = logic::compileFabric(logic::serialAdder(), d, slots, opt);
            const auto res = fab.sys.simulate(d.f1, 0.0, fab.tEnd(), fab.initialDphi, 64, 16);
            int errs = 2 * static_cast<int>(aBits.size());
            if (res.ok) {
                const auto decoded = logic::decodeFabricRun(fab, res);  // {sum, cout}
                logic::Bits gc;
                const logic::Bits gs = logic::goldenSerialAdd(aBits, bBits, 0, &gc);
                errs = 0;
                for (std::size_t k = 0; k < aBits.size(); ++k) {
                    errs += decoded[k][0] != gs[k];
                    errs += decoded[k][1] != gc[k];
                }
            }
            std::printf("  %2d/10", errs);
        }
        std::printf("\n");
    }
    std::printf("  (0 = correct; the weak-barrier / light-clock-weight corner fails)\n\n");

    // (c): coupling-phase miscalibration tolerance at the chosen design
    // point (W = 4, SYNC = 300 uA).
    const auto d300 =
        logic::designSyncLatch(osc.model(), osc.outputUnknown(), bench::kF1, 300e-6);
    std::printf("DFF correct slots vs deliberate coupling phase error (W=4, 300uA):\n");
    std::printf("  error (cycles) | correct\n");
    std::printf("  ---------------+--------\n");
    double tolerated = 0.0;
    for (double err : {0.0, 0.05, 0.10, 0.15, 0.20, 0.25}) {
        logic::PhaseDLatchOptions lo;
        const auto [good, total] = dffScore(d300, lo, err);
        std::printf("  %14.2f | %d/%d\n", err, good, total);
        if (good == total) tolerated = err;
    }
    std::printf("\n");
    bench::paperVsMeasured("heavy clock weight needed for MS handoff", "(design choice)",
                           "see W=1 vs W=4 rows");
    bench::paperVsMeasured("coupling calibration tolerance", "(design choice)",
                           "errors up to " + std::to_string(tolerated) + " cycles tolerated");
    std::printf("\n");
    return 0;
}
