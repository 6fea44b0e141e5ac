// Phase-logic serial adder (the paper's Fig. 15 FSM) simulated with PPV
// macromodels — full-system phase-domain simulation (Sec. 4.3 / Fig. 16).
//
// Usage:  serial_adder_fsm [A B]
// Adds the two non-negative integers (default 11 + 6) bit-serially on the
// oscillator FSM and checks the result.

#include <cstdio>
#include <cstdlib>

#include "core/gae_sweep.hpp"
#include "core/gae_transient.hpp"
#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "obs/report.hpp"
#include "phlogon/encoding.hpp"

using namespace phlogon;

int main(int argc, char** argv) {
    const unsigned A = argc > 1 ? std::strtoul(argv[1], nullptr, 0) : 11;
    const unsigned B = argc > 2 ? std::strtoul(argv[2], nullptr, 0) : 6;
    std::size_t width = 1;
    while ((1u << width) <= A + B) ++width;

    // Characterize the oscillator and design the latch (FSM-strength SYNC).
    const auto osc = logic::RingOscCharacterization::run(ckt::RingOscSpec{});
    std::printf("characterization cache: %s (extraction LU factorizations = %zu)\n",
                io::cacheOutcomeName(osc.cacheOutcome()).c_str(),
                osc.pss().counters.luFactorizations);
    const auto design = logic::designSyncLatch(osc.model(), osc.outputUnknown(), 9.6e3, 300e-6);
    const auto& ref = design.reference;

    // Pre-flight checks on the latch the adder is built from: the Fig. 7
    // locking-range sweep and a single-bit write timed with a GAE transient.
    // Besides sanity-checking the design they make PHLOGON_TRACE runs of
    // this example cover PSS/PPV above, sweeps + GAE transients here and
    // phase-domain simulation below.  This sweep scales one unit-amplitude
    // GAE in a plain loop, so it puts no pool tasks in the trace; a sweep
    // that builds one GAE per point, such as lockPhaseErrorSweep, does when
    // PHLOGON_THREADS > 1.
    {
        const core::Injection unit = core::Injection::tone(design.injUnknown, 1.0, 2);
        num::Vec amps;
        for (double a = 25e-6; a <= 300e-6; a += 25e-6) amps.push_back(a);
        const auto pts = core::lockingRangeVsAmplitude(design.model, unit, amps, 512);
        const core::LockingRange atSync = pts.back().range;
        std::printf("locking range at SYNC amplitude: [%.4f, %.4f] kHz (%zu-point sweep)\n",
                    atSync.fLow / 1e3, atSync.fHigh / 1e3, pts.size());

        const std::vector<core::GaeSegment> sched{
            {0.0, {design.sync(), design.dataInjection(150e-6, 1)}}};
        const auto flip = core::gaeTransient(design.model, ref.f1, sched, ref.phase0 + 0.02,
                                             0.0, 120.0 / ref.f1);
        const double settle = core::settleTime(flip, ref.phase1, 0.03);
        std::printf("bit-write check: 0 -> 1 settles in %.1f reference cycles (%s)\n",
                    settle * ref.f1, flip.ok ? "ok" : "FAILED");
        if (!flip.ok) return 1;
    }

    // Bit streams, LSB first, with a leading reset slot (a=b=0 forces the
    // carry to 0 regardless of the machine's wake-up state).
    logic::Bits a{0}, b{0};
    for (int bit : logic::toBits(A, width)) a.push_back(bit);
    for (int bit : logic::toBits(B, width)) b.push_back(bit);

    std::printf("adding %u + %u on the phase-logic serial adder (%zu bit slots at %.0f\n"
                "reference cycles each, f1 = %.2f kHz)...\n",
                A, B, a.size(), logic::FabricCompileOptions{}.bitPeriodCycles, ref.f1 / 1e3);

    // The adder netlist (logic/workloads.hpp) lowered onto phase logic: one
    // (a, b) input vector per bit slot.
    std::vector<std::vector<int>> slots;
    for (std::size_t k = 0; k < a.size(); ++k) slots.push_back({a[k], b[k]});
    const auto fab = logic::compileFabric(logic::serialAdder(), design, slots);
    const auto res = fab.sys.simulate(ref.f1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
    if (!res.ok) {
        std::printf("simulation failed\n");
        return 1;
    }

    const auto decoded = logic::decodeFabricRun(fab, res);  // {sum, cout} per slot
    const auto& carry = fab.dffs[0];
    logic::Bits sumBits;
    std::printf("\nslot | a b | sum cout | carry trace (Q1, Q2 phases at slot end)\n");
    for (std::size_t k = 0; k < a.size(); ++k) {
        const auto ph = logic::dphiAt(res, (static_cast<double>(k) + 0.95) * fab.bitPeriod);
        std::printf("%4zu | %d %d |  %d   %d   | Q1=%.3f Q2=%.3f\n", k, a[k], b[k],
                    decoded[k][0], decoded[k][1],
                    num::wrap01(ph[static_cast<std::size_t>(carry.master)]),
                    num::wrap01(ph[static_cast<std::size_t>(carry.slave)]));
        if (k > 0) sumBits.push_back(decoded[k][0]);
    }

    // The sum bits past the reset slot, topped by the last slot's carry-out.
    sumBits.push_back(decoded.back()[1]);
    const auto result = static_cast<unsigned>(logic::fromBits(sumBits));
    std::printf("\n%u + %u = %u (%s)\n", A, B, result,
                result == A + B ? "correct" : "WRONG");
    obs::maybePrintRunReport(stdout);
    return result == A + B ? 0 : 1;
}
