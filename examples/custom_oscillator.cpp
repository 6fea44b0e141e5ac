// Bring-your-own oscillator: the tool chain is not tied to the built-in
// 3-stage prototype.  This example hand-builds a 5-stage ring with custom
// device parameters and load conditions, runs the same characterization ->
// latch-design -> verification flow, and reports whether the design can
// store and flip a phase-encoded bit.

#include <cstdio>

#include "analysis/ppv.hpp"
#include "circuit/subckt.hpp"
#include "analysis/pss.hpp"
#include "core/gae_sweep.hpp"
#include "core/gae_transient.hpp"
#include "phlogon/latch.hpp"
#include "phlogon/reference.hpp"

using namespace phlogon;

int main() {
    // ---- hand-built netlist (any topology works; the analyses only see the
    //      DAE) ------------------------------------------------------------
    ckt::Netlist nl;
    ckt::RingOscSpec spec;
    spec.stages = 5;
    spec.capFarads = 2.2e-9;
    spec.nmos.kp = 0.5e-3;
    spec.pmos.kp = 0.3e-3;
    spec.pmos.vt0 = 0.85;
    const auto nodes = ckt::buildRingOscillator(nl, "ring5", spec);
    // ... plus whatever the application hangs on the output:
    nl.addCapacitor("cprobe", nodes.out(), "0", 0.2e-9);
    ckt::Dae dae(nl);

    // ---- characterize -----------------------------------------------------
    an::PssOptions popt;
    popt.freqHint = 8e3;  // rough guess is enough; shooting refines it
    // Time the PSS from the node the model and the latch are built on.
    popt.phaseUnknown = nl.findNode(nodes.out());
    const an::PssResult pss = an::shootingPss(dae, popt);
    if (!pss.ok) {
        std::printf("PSS failed: %s\n", pss.message.c_str());
        return 1;
    }
    const an::PpvResult ppv = an::extractPpvTimeDomain(dae, pss);
    if (!ppv.ok) {
        std::printf("PPV failed: %s\n", ppv.message.c_str());
        return 1;
    }
    const auto model = core::PpvModel::build(
        pss, ppv, static_cast<std::size_t>(nl.findNode(nodes.out())), nl.unknownNames());
    std::printf("5-stage ring: f0 = %.4f kHz, |V1| = %.0f, |V2| = %.0f (V2/V1 = %.3f)\n",
                pss.f0 / 1e3, model.ppvHarmonic(model.outputUnknown(), 1),
                model.ppvHarmonic(model.outputUnknown(), 2),
                model.ppvHarmonic(model.outputUnknown(), 2) /
                    model.ppvHarmonic(model.outputUnknown(), 1));

    // ---- design a latch at this oscillator's own frequency ----------------
    const double f1 = pss.f0;  // run the system reference at the design's f0
    const double syncAmp = 150e-6;
    logic::SyncLatchDesign design;
    try {
        design = logic::designSyncLatch(model, model.outputUnknown(), f1, syncAmp);
    } catch (const std::exception& e) {
        std::printf("latch design failed: %s\n", e.what());
        std::printf("(increase SYNC amplitude or asymmetrize the inverter)\n");
        return 1;
    }
    const auto range = core::lockingRange(model, {design.sync()});
    std::printf("SHIL latch: phases %.3f / %.3f, locking range %.1f Hz\n",
                design.reference.phase1, design.reference.phase0, range.width());

    // ---- verify a bit write ------------------------------------------------
    std::vector<core::GaeSegment> sched{{0.0, {design.sync(), design.dataInjection(200e-6, 1)}}};
    const auto r = core::gaeTransient(model, f1, sched, design.reference.phase0 + 0.02, 0.0,
                                      100.0 / f1);
    const double settle = core::settleTime(r, design.reference.phase1, 0.03);
    const bool ok = core::phaseDistance(r.final(), design.reference.phase1) < 0.05;
    std::printf("write '1' with 200 uA: %s (settles in %.1f cycles)\n",
                ok ? "ok" : "FAILED", settle * f1);
    return ok ? 0 : 1;
}
