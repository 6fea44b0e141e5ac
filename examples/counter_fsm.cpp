// A second FSM: 2-bit synchronous counter from phase-logic flip-flops.
//
// Toggle construction: each bit's next state is D0 = ~Q0 and
// D1 = Q1 XOR Q0 (XOR via the majority identity with a double-weighted
// inverted AND term).  Demonstrates feedback loops through NOT gates and
// placeholders in core::PhaseSystem beyond the paper's serial adder.

#include <cstdio>

#include "phlogon/encoding.hpp"
#include "phlogon/flipflop.hpp"
#include "phlogon/gates.hpp"

using namespace phlogon;

int main() {
    const auto osc = logic::RingOscCharacterization::run(ckt::RingOscSpec{});
    const auto design = logic::designSyncLatch(osc.model(), osc.outputUnknown(), 9.6e3, 300e-6);
    const auto& ref = design.reference;

    const std::size_t nTicks = 6;
    const double slot = 100.0 / ref.f1;

    core::PhaseSystem sys;
    // Clock: 0 in the first half of each tick (slaves transfer), 1 in the
    // second (masters sample).
    const logic::Bits clkBits = logic::clockBits(nTicks);
    const auto clk = sys.addExternal(logic::dataSignal(ref, clkBits, slot / 2.0), "clk");
    const auto clkBar =
        sys.addExternal(logic::dataSignal(ref, logic::invertBits(clkBits), slot / 2.0), "clkb");
    // SYNC, the constant levels and the model, shared by all four latches.
    const auto bus = logic::addPhaseLatchBus(sys, design);

    // Bit 0: D0 = ~Q0 (toggle every tick).
    const auto d0Fwd = sys.addPlaceholder("d0");
    const auto ff0 = logic::addPhaseDff(sys, design, bus, d0Fwd, clk, clkBar, {}, "bit0");
    sys.bindPlaceholder(d0Fwd, logic::addNotGate(sys, ff0.q2, "notQ0"));

    // Bit 1: D1 = Q1 XOR Q0 = MAJ(Q1, Q0, ~AND(Q1,Q0) x2)
    //       with AND(a,b) = MAJ(a, b, const0).
    const auto d1Fwd = sys.addPlaceholder("d1");
    const auto ff1 = logic::addPhaseDff(sys, design, bus, d1Fwd, clk, clkBar, {}, "bit1");
    const auto andQ = logic::addMajorityGate(
        sys, {{ff1.q2, 1.0}, {ff0.q2, 1.0}, {bus.const0, 1.0}}, 0.5, "and(Q1,Q0)");
    const auto nand = logic::addNotGate(sys, andQ, "nand");
    const auto nandUnit = logic::addUnitNormalizer(sys, nand, 1.0, 0.5, "nand.norm");
    // XOR(a,b) = MAJ5(a, b, 0, ~AND(a,b), ~AND(a,b)) — the const-0 input is
    // required; without it the a=b=0 case ties.
    sys.bindPlaceholder(
        d1Fwd, logic::addMajorityGate(
                   sys, {{ff1.q2, 1.0}, {ff0.q2, 1.0}, {bus.const0, 1.0}, {nandUnit, 2.0}}, 0.5,
                   "xor"));

    // Start at 00.
    const num::Vec dphi0(4, ref.phase0 + 0.02);
    const auto res = sys.simulate(ref.f1, 0.0, nTicks * slot, dphi0, 64, 8);
    if (!res.ok) {
        std::printf("simulation failed\n");
        return 1;
    }

    std::printf("2-bit phase-logic counter (%zu ticks):\n", nTicks);
    std::printf("tick | Q1 Q0 | count | expected\n");
    bool allOk = true;
    for (std::size_t k = 0; k < nTicks; ++k) {
        // Sample mid-tick, after the slaves transferred the new state.
        const auto ph = logic::dphiAt(res, (static_cast<double>(k) + 0.45) * slot);
        const int q0 = ref.decode(ph[1]);  // latch order: bit0 master, bit0 slave, ...
        const int q1 = ref.decode(ph[3]);
        const int count = 2 * q1 + q0;
        const int expected = static_cast<int>(k % 4);
        std::printf("%4zu |  %d  %d |   %d   |    %d  %s\n", k, q1, q0, count, expected,
                    count == expected ? "" : "WRONG");
        allOk = allOk && count == expected;
    }
    std::printf("\n%s\n", allOk ? "counter verified: counts 0,1,2,3,0,1 ..."
                                : "counter FAILED");
    return allOk ? 0 : 1;
}
