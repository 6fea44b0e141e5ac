#include "phlogon/flipflop.hpp"

#include <gtest/gtest.h>

#include "common/osc_fixture.hpp"
#include "core/gae_sweep.hpp"
#include "phlogon/encoding.hpp"
#include "phlogon/golden.hpp"

namespace phlogon::logic {
namespace {

struct DffRun {
    core::PhaseSystem sys;
    PhaseDff ff;
    core::PhaseSystem::Result res;
    double bitT = 0.0;
};

/// Drive a DFF with a D stream (one bit per slot) and the standard
/// 0-then-1-per-slot clock; returns the finished run.
DffRun runDff(const SyncLatchDesign& d, const Bits& dBits) {
    DffRun run;
    const auto& ref = d.reference;
    run.bitT = 50.0 / d.f1;
    const Bits clkBits = clockBits(dBits.size());
    const auto dSig = run.sys.addExternal(dataSignal(ref, dBits, run.bitT));
    const auto clk = run.sys.addExternal(dataSignal(ref, clkBits, run.bitT / 2.0));
    const auto clkBar = run.sys.addExternal(dataSignal(ref, invertBits(clkBits), run.bitT / 2.0));
    run.ff = addPhaseDff(run.sys, d, addPhaseLatchBus(run.sys, d), dSig, clk, clkBar);
    run.res = run.sys.simulate(d.f1, 0.0, dBits.size() * run.bitT,
                               num::Vec{ref.phase0 + 0.02, ref.phase0 + 0.02}, 64, 8);
    return run;
}

TEST(PhaseDff, MasterSamplesInSecondHalfSlot) {
    const auto& d = testutil::sharedFsmDesign();
    const Bits dBits{1, 0, 1};
    const DffRun run = runDff(d, dBits);
    ASSERT_TRUE(run.res.ok);
    for (std::size_t k = 0; k < dBits.size(); ++k) {
        const auto ph = dphiAt(run.res, (static_cast<double>(k) + 0.95) * run.bitT);
        EXPECT_EQ(d.reference.decode(ph[0]), dBits[k]) << "slot " << k;
    }
}

TEST(PhaseDff, SlaveDelaysByOneSlot) {
    const auto& d = testutil::sharedFsmDesign();
    const Bits dBits{1, 0, 0, 1};
    const DffRun run = runDff(d, dBits);
    ASSERT_TRUE(run.res.ok);
    // Q2 during the first half of slot k+1 equals D(k).
    for (std::size_t k = 0; k + 1 < dBits.size(); ++k) {
        const auto ph = dphiAt(run.res, (static_cast<double>(k) + 1.45) * run.bitT);
        EXPECT_EQ(d.reference.decode(ph[1]), dBits[k]) << "slot " << k;
    }
}

TEST(PhaseDff, GoldenModelAgreesAcrossRandomStream) {
    const auto& d = testutil::sharedFsmDesign();
    const Bits dBits{0, 1, 1, 0, 1};
    const DffRun run = runDff(d, dBits);
    ASSERT_TRUE(run.res.ok);
    GoldenDff golden(0);
    for (std::size_t k = 0; k < dBits.size(); ++k) {
        golden.update(dBits[k], 0);  // first half: clk=0
        golden.update(dBits[k], 1);  // second half: clk=1
        const auto ph = dphiAt(run.res, (static_cast<double>(k) + 0.98) * run.bitT);
        EXPECT_EQ(d.reference.decode(ph[0]), golden.q1()) << "slot " << k;
    }
}

TEST(PhaseDff, LatchPhasesStayDecodable) {
    // Phase error must never approach the decode boundary (0.25 cycles).
    const auto& d = testutil::sharedFsmDesign();
    const DffRun run = runDff(d, {1, 0, 1, 1});
    ASSERT_TRUE(run.res.ok);
    for (std::size_t k = 1; k < run.res.t.size(); ++k) {
        // Skip transition windows: sample late halves only.
        const double slotPos = std::fmod(run.res.t[k] / (run.bitT / 2.0), 1.0);
        if (slotPos < 0.8) continue;
        for (std::size_t latch = 0; latch < 2; ++latch) {
            const double dphi = run.res.dphi[latch][k];
            const double err = std::min(core::phaseDistance(dphi, d.reference.phase0),
                                        core::phaseDistance(dphi, d.reference.phase1));
            EXPECT_LT(err, 0.15) << "t=" << run.res.t[k] << " latch=" << latch;
        }
    }
}

}  // namespace
}  // namespace phlogon::logic
