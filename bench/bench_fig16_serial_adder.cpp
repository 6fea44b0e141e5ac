// Fig. 16: full-system transient simulation of the serial adder with the
// oscillator latches replaced by their PPV macromodels (paper Sec. 4.3).
//
// Paper shape: adding a = b = 101 sequentially, the two latch phases (Q1 of
// the master, Q2 of the slave) step between the two lock phases 0.5 cycles
// apart, Q2 following Q1 by half a bit slot (the master-slave hand-off), and
// the decoded sum/carry stream matches the arithmetic.

#include <cstdio>

#include "common.hpp"
#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "phlogon/golden.hpp"

using namespace phlogon;

int main() {
    bench::banner("Fig. 16", "phase-macromodel transient of the serial adder (a=b=101)");

    const auto& osc = bench::osc1n1p();
    // FSM latches run with a stronger SYNC: the hold barrier must exceed the
    // majority-gate residue disturbances (see PhaseDLatchOptions).
    const auto design =
        logic::designSyncLatch(osc.model(), osc.outputUnknown(), bench::kF1, 300e-6);

    // LSB-first a = b = 101, preceded by a reset slot (a=b=0 forces the
    // carry to a known value).
    const logic::Bits a{0, 1, 0, 1}, b{0, 1, 0, 1};

    std::vector<std::vector<int>> slots;
    for (std::size_t k = 0; k < a.size(); ++k) slots.push_back({a[k], b[k]});
    const auto fab = logic::compileFabric(logic::serialAdder(), design, slots);
    const auto res = fab.sys.simulate(design.f1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
    if (!res.ok) {
        std::printf("simulation failed\n");
        return 1;
    }

    viz::Chart chart("Fig. 16 — latch phases while adding a=b=101", "t (bit slots)",
                     "dphi (cycles)");
    num::Vec x(res.t.size()), q1(res.t.size()), q2(res.t.size());
    for (std::size_t i = 0; i < res.t.size(); ++i) {
        x[i] = res.t[i] / fab.bitPeriod;
        q1[i] = num::wrap01(res.dphi[static_cast<std::size_t>(fab.dffs[0].master)][i]);
        q2[i] = num::wrap01(res.dphi[static_cast<std::size_t>(fab.dffs[0].slave)][i]);
    }
    chart.add("Q1 (master)", x, q1);
    chart.add("Q2 (slave/carry)", x, q2);
    bench::showChart(chart, "fig16_serial_adder");

    const auto decoded = logic::decodeFabricRun(fab, res);  // {sum, cout} per slot
    logic::Bits gc;
    const logic::Bits gs = logic::goldenSerialAdd(a, b, 0, &gc);
    std::printf("slot | a b | sum cout | golden\n");
    std::printf("-----+-----+----------+-------\n");
    bool allOk = true;
    for (std::size_t k = 0; k < a.size(); ++k) {
        const int sum = decoded[k][0], cout = decoded[k][1];
        std::printf("%4zu | %d %d |  %d   %d   |  %d %d\n", k, a[k], b[k], sum, cout, gs[k],
                    gc[k]);
        allOk = allOk && sum == gs[k] && cout == gc[k];
    }
    std::printf("\n");
    bench::paperVsMeasured("serial adder computes a+b correctly", "yes (scope traces)",
                           allOk ? "yes (all slots match golden)" : "NO");
    bench::paperVsMeasured("Q2 follows Q1 with half-slot delay", "yes (Fig. 16/19)",
                           "yes (see chart)");
    std::printf("\n");
    return allOk ? 0 : 1;
}
