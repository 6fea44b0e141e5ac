// Phase-domain equivalence harness: every compiled fabric must behave
// exactly like its netlist's Boolean semantics (LogicNetlist::step — itself
// verified against integer arithmetic in test_fabric.cpp).
//
// Two tiers:
//   * FabricIdealSim — latches pinned at their lock phases, the lowered gate
//     network (weights, constants, normalizers, clock gating) decoded by
//     correlation.  Cheap enough for >= 256 SplitMix64 random vectors per
//     fabric plus exhaustive input sweeps for widths <= 8.
//   * full phase-ODE runs (PhaseSystem::simulate) — spot-check the dynamics
//     on the small sequential fabrics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/osc_fixture.hpp"
#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "numeric/rng.hpp"

using namespace phlogon;
using logic::LogicNetlist;

namespace {

std::vector<std::vector<int>> randomVectors(std::uint64_t seed, std::size_t count,
                                            std::size_t width) {
    num::SplitMix64 rng(seed);
    std::vector<std::vector<int>> vecs(count);
    for (auto& v : vecs) {
        v.resize(width);
        for (auto& bit : v) bit = static_cast<int>(rng() & 1u);
    }
    return vecs;
}

std::vector<std::vector<int>> exhaustiveVectors(std::size_t width) {
    std::vector<std::vector<int>> vecs;
    vecs.reserve(std::size_t{1} << width);
    for (std::uint64_t v = 0; v < (std::uint64_t{1} << width); ++v)
        vecs.push_back(logic::toBits(v, width));
    return vecs;
}

/// Compile `nl` with the given schedule and check every slot's decoded
/// outputs (and the flip-flop state trajectory) against LogicNetlist::step.
void expectFabricMatchesNetlist(const LogicNetlist& nl,
                                const std::vector<std::vector<int>>& vectors,
                                const char* what) {
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(), vectors);
    logic::FabricIdealSim sim(fab);
    std::vector<int> state(nl.dffs().size(), 0);
    for (std::size_t k = 0; k < vectors.size(); ++k) {
        const auto want = nl.step(vectors[k], state);
        const auto got = sim.step();
        ASSERT_EQ(got, want) << what << ": outputs diverge at slot " << k;
        ASSERT_EQ(sim.state(), state) << what << ": dff state diverges at slot " << k;
    }
}

}  // namespace

// -- exhaustive sweeps (every input combination, widths <= 8) ---------------

TEST(FabricEquivalence, RippleAdder3Exhaustive) {
    const auto nl = logic::rippleAdder(3);  // 7 inputs -> 128 vectors
    expectFabricMatchesNetlist(nl, exhaustiveVectors(nl.inputs().size()), "ripple3");
}

TEST(FabricEquivalence, Multiplier4x4Exhaustive) {
    const auto nl = logic::multiplier4x4();  // 8 inputs -> 256 vectors
    expectFabricMatchesNetlist(nl, exhaustiveVectors(nl.inputs().size()), "mult4x4");
}

TEST(FabricEquivalence, CarrySelect3Exhaustive) {
    const auto nl = logic::carrySelectAdder(3, 2);  // 7 inputs -> 128 vectors
    expectFabricMatchesNetlist(nl, exhaustiveVectors(nl.inputs().size()), "csel3");
}

TEST(FabricEquivalence, EveryGateOpExhaustiveAndRandom) {
    // One netlist exercising every IR op's lowering (incl. nand/nor, which
    // no arithmetic workload uses), plus a dff closing a feedback path.
    const auto nl = logic::parseLogicNetlist(R"(
        input a b c
        and  t1 a b
        nand t2 a b
        or   t3 b c
        nor  t4 b c
        xor  t5 a c
        xnor t6 a b c
        maj  t7 t1 t3 t5
        not  t8 t7
        buf  t9 t8
        dff  q  d
        xor  d  q t9
        output t1 t2 t3 t4 t5 t6 t7 t8 t9 q
    )");
    auto vectors = exhaustiveVectors(nl.inputs().size());
    const auto rand = randomVectors(0x90DD, 256, nl.inputs().size());
    vectors.insert(vectors.end(), rand.begin(), rand.end());
    expectFabricMatchesNetlist(nl, vectors, "all-ops");
}

// -- random-vector sweeps (>= 256 SplitMix64 vectors per fabric) ------------

TEST(FabricEquivalence, RippleAdder8Random) {
    const auto nl = logic::rippleAdder(8);  // 17 inputs
    expectFabricMatchesNetlist(nl, randomVectors(0xA11CE, 256, nl.inputs().size()), "ripple8");
}

TEST(FabricEquivalence, CarrySelectAdder8Random) {
    const auto nl = logic::carrySelectAdder(8, 3);
    expectFabricMatchesNetlist(nl, randomVectors(0xB0B, 256, nl.inputs().size()), "csel8");
}

TEST(FabricEquivalence, RegisteredRippleAdder4Random) {
    const auto nl = logic::registeredRippleAdder(4);
    expectFabricMatchesNetlist(nl, randomVectors(0xCAFE, 256, nl.inputs().size()), "rripple4");
}

TEST(FabricEquivalence, SerialAdderExhaustiveAndRandom) {
    // The paper's Fig. 15 adder: every (a, b) pair under carry 0 and under
    // carry 1 (all eight full-adder cases), then 256 random slots.
    const auto nl = logic::serialAdder();
    std::vector<std::vector<int>> vectors;
    for (const auto& v : exhaustiveVectors(2)) {
        vectors.push_back(v);       // carry 0 here
        vectors.push_back({1, 1});  // sets the carry
        vectors.push_back(v);       // carry 1 here
        vectors.push_back({0, 0});  // clears it
    }
    const auto rand = randomVectors(0x5EA1, 256, nl.inputs().size());
    vectors.insert(vectors.end(), rand.begin(), rand.end());
    expectFabricMatchesNetlist(nl, vectors, "serial-adder");
}

TEST(FabricEquivalence, ShiftRegister8Random) {
    const auto nl = logic::shiftRegister(8);
    expectFabricMatchesNetlist(nl, randomVectors(0xD1CE, 256, nl.inputs().size()), "shift8");
}

TEST(FabricEquivalence, UpCounter4Sequential) {
    const auto nl = logic::upCounter(4);  // no inputs: 256 empty slots
    expectFabricMatchesNetlist(nl, std::vector<std::vector<int>>(256), "counter4");
}

TEST(FabricEquivalence, Lfsr8Sequential) {
    const auto nl = logic::lfsr(8);
    expectFabricMatchesNetlist(nl, std::vector<std::vector<int>>(260), "lfsr8");
}

// -- full phase-ODE spot checks ---------------------------------------------

TEST(FabricEquivalence, UpCounter2FullOde) {
    const auto nl = logic::upCounter(2);
    const std::size_t ticks = 6;
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(),
                                          std::vector<std::vector<int>>(ticks));
    const auto res = fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
    ASSERT_TRUE(res.ok);
    const auto decoded = logic::decodeFabricRun(fab, res);
    std::vector<int> state(nl.dffs().size(), 0);
    for (std::size_t k = 0; k < ticks; ++k)
        EXPECT_EQ(decoded[k], nl.step({}, state)) << "tick " << k;
}

TEST(FabricEquivalence, RegisteredRippleAdder2FullOde) {
    const auto nl = logic::registeredRippleAdder(2);
    const auto vectors = randomVectors(0xFEED, 6, nl.inputs().size());
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(), vectors);
    const auto res = fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
    ASSERT_TRUE(res.ok);
    const auto decoded = logic::decodeFabricRun(fab, res);
    std::vector<int> state(nl.dffs().size(), 0);
    for (std::size_t k = 0; k < vectors.size(); ++k)
        EXPECT_EQ(decoded[k], nl.step(vectors[k], state)) << "slot " << k;
}

TEST(FabricEquivalence, SerialAdderFullOde) {
    const auto nl = logic::serialAdder();
    const auto vectors = randomVectors(0xADD, 6, nl.inputs().size());
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(), vectors);
    const auto res = fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
    ASSERT_TRUE(res.ok);
    const auto decoded = logic::decodeFabricRun(fab, res);
    std::vector<int> state(nl.dffs().size(), 0);
    for (std::size_t k = 0; k < vectors.size(); ++k)
        EXPECT_EQ(decoded[k], nl.step(vectors[k], state)) << "slot " << k;
}

TEST(FabricEquivalence, ShiftRegister2FullOde) {
    const auto nl = logic::shiftRegister(2);
    const std::vector<std::vector<int>> vectors{{1}, {0}, {1}, {1}, {0}, {0}};
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(), vectors);
    const auto res = fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
    ASSERT_TRUE(res.ok);
    const auto decoded = logic::decodeFabricRun(fab, res);
    std::vector<int> state(nl.dffs().size(), 0);
    for (std::size_t k = 0; k < vectors.size(); ++k)
        EXPECT_EQ(decoded[k], nl.step(vectors[k], state)) << "slot " << k;
}

// Compile-time guard rails of the fabric compiler itself.
TEST(FabricEquivalence, CompileRejectsBadSchedules) {
    const auto nl = logic::rippleAdder(2);
    EXPECT_THROW(logic::compileFabric(nl, testutil::sharedFsmDesign(), {}),
                 logic::FabricError);
    EXPECT_THROW(logic::compileFabric(nl, testutil::sharedFsmDesign(), {{1, 0}}),
                 logic::FabricError);  // 5 inputs, 2 bits
    // A slot must last a positive, finite time.
    for (const double cycles : {0.0, -1.0, std::nan("")}) {
        logic::FabricCompileOptions opt;
        opt.bitPeriodCycles = cycles;
        EXPECT_THROW(logic::compileFabric(nl, testutil::sharedFsmDesign(),
                                          {std::vector<int>(nl.inputs().size(), 0)}, opt),
                     logic::FabricError)
            << cycles;
    }
}
