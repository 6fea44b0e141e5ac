// Golden trajectories of the phase-domain engine (PhaseSystem::simulate) on
// compiled fabrics, the paper's serial adder among them.
//
// The values below were printed at %.17g from the engine's last two-engine
// version, where the recursive evaluator driving the plain rk4 and the Program
// pass driving BatchOde::rk4Lockstep agreed bitwise at every lane partition,
// thread count and SIMD tier, re-pinned once when the PSS time origin
// moved to n1's rising mean-crossing on the converged orbit, and once when
// the settle-checked warm-up and the shooting-step predictor moved the PSS
// at Newton tolerance (final phases by at most 4.4e-11 cycle).  They pin point
// counts, final phases and a 34-latch phase sum, so a change to the signal
// evaluation order, the delay grouping or the RK4 arithmetic fails loudly.
// Tolerance is 1e-12 relative, as in tests/core/test_sweep_golden.cpp.  The
// suite keeps the names it had as a parity suite; CI runs it on the default
// SIMD tier and under PHLOGON_SIMD=0.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/osc_fixture.hpp"
#include "common/scoped_env.hpp"
#include "logic/compile.hpp"
#include "logic/workloads.hpp"

using namespace phlogon;
using core::PhaseSystem;

namespace {

// EXPECT a relative agreement of 1e-12 (absolute 1e-12 when golden == 0).
void expectGolden(double value, double golden) {
    EXPECT_NEAR(value, golden, 1e-12 * std::max(1.0, std::abs(golden)));
}

/// Exact (bitwise) comparison of two simulation results.
void expectBitwiseEqual(const PhaseSystem::Result& a, const PhaseSystem::Result& b,
                        const char* what) {
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_EQ(a.t.size(), b.t.size()) << what;
    EXPECT_EQ(a.t, b.t) << what << ": time grids differ";
    ASSERT_EQ(a.dphi.size(), b.dphi.size()) << what;
    for (std::size_t i = 0; i < a.dphi.size(); ++i)
        EXPECT_EQ(a.dphi[i], b.dphi[i]) << what << ": latch " << i << " trajectory differs";
    ASSERT_EQ(a.vout.size(), b.vout.size()) << what;
    for (std::size_t i = 0; i < a.vout.size(); ++i)
        EXPECT_EQ(a.vout[i], b.vout[i]) << what << ": latch " << i << " vout differs";
}

}  // namespace

TEST(FabricBatchParity, SerialAdderScalarVsBatched) {
    // a = 1011, b = 1101 (LSB first), one (a, b) vector per slot.
    const auto fab = logic::compileFabric(logic::serialAdder(), testutil::sharedFsmDesign(),
                                          {{1, 1}, {0, 1}, {1, 0}, {1, 1}});
    const auto res = fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.t.size(), 3201u);
    ASSERT_EQ(res.dphi.size(), 2u);
    expectGolden(res.dphi[0].back(), 1.0514362011097163);  // carry.master
    expectGolden(res.dphi[1].back(), 1.0718346681097419);  // carry.slave

    // 1011 + 1101 decodes to the golden answer: {sum, cout} per slot.
    EXPECT_EQ(logic::decodeFabricRun(fab, res),
              (std::vector<std::vector<int>>{{0, 1}, {0, 1}, {0, 1}, {1, 1}}));
}

TEST(FabricBatchParity, RippleAdder16ScalarVsBatchedAcrossPartitions) {
    // 16-bit registered ripple adder: 34 latches, deep carry cones — the
    // stress case for signal-evaluation order and delay-group handling.
    const auto nl = logic::registeredRippleAdder(16);
    const std::vector<std::vector<int>> vectors{
        logic::toBits(0x1B35F | (0x0F0F0ull << 16), 33),  // a=0x.., b=0x.., cin packed LSB-first
        logic::toBits(0x2AAAA | (0x15555ull << 16), 33),
    };
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(), vectors);
    ASSERT_EQ(fab.sys.latchCount(), 34u);

    const auto res = fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 16);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.t.size(), 801u);
    const auto finalPhase = [&](int latch) {
        return res.dphi[static_cast<std::size_t>(latch)].back();
    };
    expectGolden(finalPhase(fab.dffs.front().master), 0.59034710036645954);
    expectGolden(finalPhase(fab.dffs.front().slave), 0.62184546524054296);
    expectGolden(finalPhase(fab.dffs.back().master), 1.0540633396973071);
    expectGolden(finalPhase(fab.dffs.back().slave), 1.0705699200889569);
    double sum = 0.0;
    for (const auto& d : res.dphi) sum += d.back();
    expectGolden(sum, 28.324347195252297);
}

TEST(FabricBatchParity, ThreadsFromEnvironmentAreBitwiseNeutral) {
    // The engine runs on the calling thread and reads no PHLOGON_THREADS, so
    // the 3-bit counter comes out bitwise the same under every setting.
    const auto nl = logic::upCounter(3);
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(),
                                          std::vector<std::vector<int>>(2));
    const auto base = fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
    for (const char* threads : {"1", "2", "4"}) {
        testutil::ScopedThreadsEnv env(threads);
        const auto res =
            fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
        expectBitwiseEqual(base, res, threads);
    }
}

TEST(FabricBatchParity, UnevenStoreEveryKeepsLastPoint) {
    const auto nl = logic::shiftRegister(1);
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(),
                                          std::vector<std::vector<int>>{{1}});
    // One 100-cycle slot at 64 steps per cycle is 6400 steps; storeEvery = 5
    // keeps t0 and every 5th step, ending on tEnd.  A storeEvery that leaves
    // a tail is checked on the integrator itself
    // (SimdBatchOde.Rk4LockstepSimdOnEqualsOff).
    const auto res = fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 5);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.t.size(), 1281u);
    EXPECT_DOUBLE_EQ(res.t.back(), fab.tEnd());
}
