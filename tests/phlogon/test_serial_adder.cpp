// The paper's serial adder (Fig. 15) in the phase domain: the netlist
// logic::serialAdder() lowered by compileFabric, run through the phase
// engine and decoded by decodeFabricRun, against the Boolean golden model.

#include <gtest/gtest.h>

#include <random>

#include "common/osc_fixture.hpp"
#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "phlogon/encoding.hpp"
#include "phlogon/golden.hpp"

namespace phlogon::logic {
namespace {

struct AdderRun {
    CompiledFabric fab;
    core::PhaseSystem::Result res;
    Bits sums, couts;  ///< decoded per slot
};

AdderRun runAdder(const SyncLatchDesign& d, const Bits& a, const Bits& b) {
    std::vector<std::vector<int>> slots;
    for (std::size_t k = 0; k < a.size(); ++k) slots.push_back({a[k], b[k]});
    AdderRun run{compileFabric(serialAdder(), d, slots), {}, {}, {}};
    run.res = run.fab.sys.simulate(d.f1, 0.0, run.fab.tEnd(), run.fab.initialDphi, 64, 8);
    if (run.res.ok)
        for (const auto& out : decodeFabricRun(run.fab, run.res)) {
            run.sums.push_back(out[0]);
            run.couts.push_back(out[1]);
        }
    return run;
}

TEST(PhaseSerialAdder, BuildValidatesStreams) {
    const auto& d = testutil::sharedFsmDesign();
    EXPECT_THROW(compileFabric(serialAdder(), d, {{1, 1}, {0}}), FabricError);  // ragged
    EXPECT_THROW(compileFabric(serialAdder(), d, {}), FabricError);             // no slots
}

TEST(PhaseSerialAdder, StructureHasTwoLatches) {
    const auto fab = compileFabric(serialAdder(), testutil::sharedFsmDesign(), {{0, 0}, {1, 1}});
    EXPECT_EQ(fab.sys.latchCount(), 2u);
}

TEST(PhaseSerialAdder, PaperCaseAEqualsBEquals101) {
    // The paper's Fig. 16 adds a = b = 101 sequentially (plus a leading
    // reset slot clearing the carry).
    const auto& d = testutil::sharedFsmDesign();
    const Bits a{0, 1, 0, 1}, b{0, 1, 0, 1};
    const AdderRun run = runAdder(d, a, b);
    ASSERT_TRUE(run.res.ok);
    Bits gc;
    const Bits gs = goldenSerialAdd(a, b, 0, &gc);
    EXPECT_EQ(run.sums, gs);
    EXPECT_EQ(run.couts, gc);
}

class SerialAdderStreams : public ::testing::TestWithParam<std::pair<Bits, Bits>> {};

TEST_P(SerialAdderStreams, MatchesGoldenModel) {
    const auto& d = testutil::sharedFsmDesign();
    const auto& [a, b] = GetParam();
    const AdderRun run = runAdder(d, a, b);
    ASSERT_TRUE(run.res.ok);
    Bits gc;
    const Bits gs = goldenSerialAdd(a, b, 0, &gc);
    EXPECT_EQ(run.sums, gs);
    EXPECT_EQ(run.couts, gc);
}

INSTANTIATE_TEST_SUITE_P(
    CarryPatterns, SerialAdderStreams,
    ::testing::Values(std::make_pair(Bits{0, 1, 1, 0}, Bits{0, 1, 0, 1}),
                      std::make_pair(Bits{0, 1, 1, 1, 1}, Bits{0, 1, 0, 0, 0}),  // carry chain
                      std::make_pair(Bits{0, 0, 0, 0}, Bits{0, 0, 0, 0}),
                      std::make_pair(Bits{0, 1, 0, 0, 1}, Bits{0, 0, 1, 0, 1}),
                      std::make_pair(Bits{0, 1, 1}, Bits{0, 1, 1})));

TEST(PhaseSerialAdder, RandomStreamsProperty) {
    // Property sweep: random 5-bit additions (leading reset slot).
    const auto& d = testutil::sharedFsmDesign();
    std::mt19937 rng(3);
    for (int trial = 0; trial < 3; ++trial) {
        Bits a{0}, b{0};
        for (int k = 0; k < 4; ++k) {
            a.push_back(static_cast<int>(rng() & 1));
            b.push_back(static_cast<int>(rng() & 1));
        }
        const AdderRun run = runAdder(d, a, b);
        ASSERT_TRUE(run.res.ok);
        Bits gc;
        const Bits gs = goldenSerialAdd(a, b, 0, &gc);
        EXPECT_EQ(run.sums, gs) << "trial " << trial;
        EXPECT_EQ(run.couts, gc) << "trial " << trial;
    }
}

TEST(DphiAt, InterpolatesAndClamps) {
    core::PhaseSystem::Result res;
    res.ok = true;
    res.t = {0.0, 1.0};
    res.dphi = {{0.0, 1.0}, {2.0, 4.0}};
    const num::Vec mid = dphiAt(res, 0.5);
    EXPECT_NEAR(mid[0], 0.5, 1e-12);
    EXPECT_NEAR(mid[1], 3.0, 1e-12);
    EXPECT_NEAR(dphiAt(res, -5.0)[1], 2.0, 1e-12);
    EXPECT_NEAR(dphiAt(res, 5.0)[1], 4.0, 1e-12);
}

TEST(DecodeSignalBit, DecodesPureReferences) {
    const auto& d = testutil::sharedFsmDesign();
    core::PhaseSystem sys;
    const auto s1 = sys.addExternal(d.reference.refSignal(1));
    const auto s0 = sys.addExternal(d.reference.refSignal(0));
    const core::PhaseSystem::Program prog(sys, {s1, s0});
    EXPECT_EQ(decodeSignals(prog, d.reference, 1e-3, {}, {s1, s0}), (Bits{1, 0}));
    EXPECT_EQ(decodeSignals(prog, d.reference, 1e-3, {}, {s0}), (Bits{0}));
}

}  // namespace
}  // namespace phlogon::logic
