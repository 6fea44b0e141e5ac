// Golden-value regression tests for the figure-reproduction sweeps.
//
// The values below were produced by the *serial* sweep code (threads = 1)
// at the time the parallel execution layer was introduced, printed at %.17g,
// and re-pinned once when the PSS time origin moved to n1's rising
// mean-crossing on the converged orbit (f0 did not move; the lock phases
// shifted by the gauge, the widths by 3.2e-6 relative), and once when the
// settle-checked warm-up and the shooting-step predictor moved the PSS at
// Newton tolerance (f0 by 1.5e-11, the widths by 1.2e-10 relative, the
// lock phases by 9.3e-11 cycle).
// They pin Fig. 7 locking-range widths and Fig. 8 lock-phase errors at
// representative amplitudes/detunings so that any later rewiring of the
// sweep internals (parallelism, grid changes, refactors) that silently
// changes the science fails loudly.  Tolerance is 1e-12 *relative* — tight
// enough that only a real numerical change can trip it, loose enough to
// survive benign compiler/optimization-level differences.

#include <gtest/gtest.h>

#include <cmath>

#include "common/osc_fixture.hpp"
#include "core/gae_sweep.hpp"

namespace phlogon::core {
namespace {

const PpvModel& model() { return testutil::sharedOsc().model(); }
std::size_t injNode() { return testutil::sharedOsc().outputUnknown(); }

// EXPECT a relative agreement of 1e-12 (absolute 1e-12 when golden == 0).
void expectGolden(double value, double golden) {
    EXPECT_NEAR(value, golden, 1e-12 * std::max(1.0, std::abs(golden)));
}

TEST(SweepGolden, OscillatorFrequency) {
    // Everything downstream keys off the characterized f0; pin it first so a
    // drift here is not misreported as a sweep regression.
    expectGolden(model().f0(), 9598.1372332722422);
}

TEST(SweepGolden, Fig7LockingRangeWidths) {
    const Injection unit = Injection::tone(injNode(), 1.0, 2);
    const num::Vec amps{50e-6, 100e-6, 200e-6};
    const auto pts = lockingRangeVsAmplitude(model(), unit, amps);
    ASSERT_EQ(pts.size(), 3u);
    ASSERT_TRUE(pts[0].range.locks && pts[1].range.locks && pts[2].range.locks);
    expectGolden(pts[0].range.width(), 90.135623093481627);   // A =  50 uA
    expectGolden(pts[1].range.width(), 180.27124618695962);   // A = 100 uA
    expectGolden(pts[2].range.width(), 360.54249237392105);   // A = 200 uA
    // Boundaries at the paper's operating amplitude (100 uA).
    expectGolden(pts[1].range.fLow, 9508.0016101787623);
    expectGolden(pts[1].range.fHigh, 9688.272856365722);
}

TEST(SweepGolden, Fig8PhaseErrors) {
    const std::vector<Injection> inj{Injection::tone(injNode(), 100e-6, 2)};
    const LockingRange r = lockingRange(model(), inj);
    ASSERT_TRUE(r.locks);
    expectGolden(r.width(), 180.27124618695962);
    // Three representative detunings: 15% into the range from the low edge,
    // dead center (zero detuning), and 15% from the high edge.
    const num::Vec grid{r.fLow + 0.15 * r.width(), model().f0(), r.fHigh - 0.15 * r.width()};
    const auto pts = lockPhaseErrorSweep(model(), inj, grid);
    ASSERT_EQ(pts.size(), 3u);
    for (const auto& p : pts) ASSERT_EQ(p.phases.size(), 2u);  // SHIL bistable

    // Low edge: f1 = 9535.0422971068056 Hz, detune -6.5736e-3.
    expectGolden(pts[0].f1, 9535.0422971068056);
    expectGolden(pts[0].phases[0], 0.11909696091550964);
    expectGolden(pts[0].errors[0], 0.061703862955820067);
    expectGolden(pts[0].phases[1], 0.6190969609155097);
    expectGolden(pts[0].errors[1], 0.061703862955820088);

    // Band center: zero detuning, zero error by construction.
    expectGolden(pts[1].detune, 0.0);
    expectGolden(pts[1].phases[0], 0.057393097959943115);
    expectGolden(pts[1].errors[0], 0.0);
    expectGolden(pts[1].phases[1], 0.55739309795994318);
    expectGolden(pts[1].errors[1], 0.0);

    // High edge: mirror-symmetric error growth.
    expectGolden(pts[2].f1, 9661.2321694376787);
    expectGolden(pts[2].phases[0], 0.49568923500019269);
    expectGolden(pts[2].errors[0], 0.061703862960004074);
    expectGolden(pts[2].phases[1], 0.99568923500019246);
    expectGolden(pts[2].errors[1], 0.061703862960004185);
}

}  // namespace
}  // namespace phlogon::core
