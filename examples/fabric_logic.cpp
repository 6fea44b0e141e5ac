// Fabric compiler walkthrough: write a tiny structural netlist, compile it
// onto oscillator phase logic, run the phase-ODE engine, and decode
// the answer back to bits.  Also shows the quasi-static FabricIdealSim used
// by the equivalence harness to check big combinational cones cheaply.

#include <cstdio>

#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "phlogon/flipflop.hpp"

using namespace phlogon;

int main() {
    // 1. Characterize an oscillator and design the SHIL latch (as in the
    //    serial-adder flow).
    const auto osc = logic::RingOscCharacterization::run(ckt::RingOscSpec{});
    const auto design = logic::designSyncLatch(osc.model(), osc.outputUnknown(), 9.6e3, 300e-6);

    // 2. A 2-bit synchronous up-counter, written in the structural netlist
    //    text format (nets may be referenced before they are driven).
    const auto counter = logic::parseLogicNetlist(R"(
        # 2-bit up-counter: d0 = ~q0, d1 = q1 ^ q0
        dff q0 d0
        dff q1 d1
        not d0 q0
        xor d1 q1 q0
        output q0 q1
    )");

    // 3. Compile onto a PhaseSystem (4 SHIL latches + majority gates) and
    //    integrate the coupled phase ODEs.
    const std::size_t ticks = 6;
    auto fab = logic::compileFabric(counter, design,
                                    std::vector<std::vector<int>>(ticks));  // no inputs
    std::printf("counter fabric: %zu latches, %zu signals\n", fab.sys.latchCount(),
                fab.sys.signalCount());

    const auto res = fab.sys.simulate(design.f1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
    const auto decoded = logic::decodeFabricRun(fab, res);

    std::vector<int> state(counter.dffs().size(), 0);
    std::printf("tick  phase-ODE  Boolean\n");
    for (std::size_t k = 0; k < ticks; ++k) {
        const auto want = counter.step({}, state);
        std::printf("  %zu     q1q0=%d%d   q1q0=%d%d\n", k, decoded[k][1], decoded[k][0],
                    want[1], want[0]);
    }

    // 4. The quasi-static checker: pin latches at their lock phases and
    //    decode the lowered gate network directly — here a 4x4 multiplier.
    const auto mult = logic::multiplier4x4();
    for (const auto& [a, b] : {std::pair<int, int>{7, 9}, {13, 11}, {15, 15}}) {
        auto bitsA = logic::toBits(static_cast<std::uint64_t>(a), 4);
        auto bitsB = logic::toBits(static_cast<std::uint64_t>(b), 4);
        bitsA.insert(bitsA.end(), bitsB.begin(), bitsB.end());
        auto mfab = logic::compileFabric(mult, design, {bitsA});
        logic::FabricIdealSim sim(mfab);
        const auto p = logic::fromBits(sim.step());
        std::printf("phase multiplier: %d * %d = %llu\n", a, b,
                    static_cast<unsigned long long>(p));
    }
    return 0;
}
