// SPICE-deck front end: describe the oscillator in the familiar card format,
// then push it through the exact same characterization / latch-design flow.

#include <cstdio>

#include "analysis/ppv.hpp"
#include "analysis/pss.hpp"
#include "circuit/spice_parser.hpp"
#include "core/gae_sweep.hpp"
#include "phlogon/reference.hpp"

using namespace phlogon;

namespace {

constexpr const char* kDeck = R"(
* paper Fig. 3: 3-stage ring oscillator, ALD110x-like devices
Vdd vdd 0 DC 3.0
M1p n1 n3 vdd PMOS kp=0.238m vt0=0.82
M1n n1 n3 0   NMOS kp=0.381m vt0=0.70
C1  n1 0 4.7n
M2p n2 n1 vdd PMOS kp=0.238m vt0=0.82
M2n n2 n1 0   NMOS kp=0.381m vt0=0.70
C2  n2 0 4.7n
M3p n3 n2 vdd PMOS kp=0.238m vt0=0.82
M3n n3 n2 0   NMOS kp=0.381m vt0=0.70
C3  n3 0 4.7n
.end
)";

}  // namespace

int main() {
    ckt::Netlist nl;
    try {
        ckt::parseSpiceDeck(kDeck, nl);
    } catch (const ckt::SpiceParseError& e) {
        std::printf("parse error: %s\n", e.what());
        return 1;
    }
    std::printf("parsed deck: %zu devices, %zu unknowns\n", nl.devices().size(), nl.size());

    ckt::Dae dae(nl);
    an::PssOptions popt;
    popt.freqHint = 10e3;
    // Time origin on the output's rising mean-crossing, as the library's
    // ring characterization pins it: the three ring nodes swing alike, so the
    // automatic pick would set the bit phases' origin by a near tie.
    popt.phaseUnknown = nl.findNode("n1");
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
        pss, ppv, static_cast<std::size_t>(nl.findNode("n1")), nl.unknownNames());
    std::printf("f0 = %.4f kHz, |V1| = %.0f, |V2| = %.0f\n", pss.f0 / 1e3,
                model.ppvHarmonic(model.outputUnknown(), 1),
                model.ppvHarmonic(model.outputUnknown(), 2));

    const auto design = logic::designSyncLatch(model, model.outputUnknown(), 9.6e3, 100e-6);
    const auto range = core::lockingRange(model, {design.sync()});
    std::printf("SHIL latch: bit phases %.3f / %.3f, locking range [%.4f, %.4f] kHz\n",
                design.reference.phase1, design.reference.phase0, range.fLow / 1e3,
                range.fHigh / 1e3);
    return 0;
}
