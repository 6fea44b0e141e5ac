// Fabric IR tests: builder API, structural validation (undriven /
// multiply-driven nets, fan-in limits, combinational-cycle detection with
// the full cycle path), the netlist text parser, and the Boolean reference
// semantics of the workload generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "logic/workloads.hpp"
#include "numeric/rng.hpp"
#include "phlogon/golden.hpp"

using namespace phlogon::logic;

namespace {

std::string caught(const LogicNetlist& nl) {
    try {
        nl.validate();
    } catch (const FabricError& e) {
        return e.what();
    }
    return {};
}

}  // namespace

TEST(Fabric, BuilderCreatesNetsOnFirstMention) {
    LogicNetlist nl;
    nl.addInput("a");
    nl.addInput("b");
    nl.addGate(GateOp::And, "y", {"a", "b"});
    nl.addOutput("y");
    EXPECT_EQ(nl.netCount(), 3u);
    EXPECT_TRUE(nl.hasNet("y"));
    EXPECT_FALSE(nl.hasNet("z"));
    EXPECT_EQ(nl.netName(nl.findNet("a")), "a");
    EXPECT_THROW(nl.findNet("z"), FabricError);
    EXPECT_NO_THROW(nl.validate());
}

TEST(Fabric, GateArityCheckedImmediately) {
    LogicNetlist nl;
    nl.addInput("a");
    nl.addInput("b");
    nl.addInput("c");
    EXPECT_THROW(nl.addGate(GateOp::Not, "y", {"a", "b"}), FabricError);
    EXPECT_THROW(nl.addGate(GateOp::Buf, "y", {}), FabricError);
    EXPECT_THROW(nl.addGate(GateOp::And, "y", {"a"}), FabricError);
    EXPECT_THROW(nl.addGate(GateOp::Maj, "y", {"a", "b"}), FabricError);  // even fan-in
    EXPECT_NO_THROW(nl.addGate(GateOp::Maj, "y", {"a", "b", "c"}));
}

TEST(Fabric, MultipleDriversThrowWithNetName) {
    LogicNetlist nl;
    nl.addInput("a");
    nl.addInput("b");
    nl.addGate(GateOp::Not, "y", {"a"});
    try {
        nl.addGate(GateOp::Not, "y", {"b"});
        FAIL() << "second driver accepted";
    } catch (const FabricError& e) {
        EXPECT_NE(std::string(e.what()).find("'y'"), std::string::npos) << e.what();
    }
    EXPECT_THROW(nl.addInput("y"), FabricError);
    EXPECT_THROW(nl.addDff("y", "a"), FabricError);
}

TEST(Fabric, ValidateReportsUndrivenNets) {
    LogicNetlist nl;
    nl.addInput("a");
    nl.addGate(GateOp::And, "y", {"a", "ghost"});
    nl.addOutput("y");
    const std::string msg = caught(nl);
    EXPECT_NE(msg.find("undriven"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ghost"), std::string::npos) << msg;
}

TEST(Fabric, ValidateEnforcesFanInLimit) {
    LogicNetlist nl;
    std::vector<std::string> ins;
    for (int i = 0; i < 4; ++i) {
        ins.push_back("a" + std::to_string(i));
        nl.addInput(ins.back());
    }
    nl.addGate(GateOp::And, "y", ins);
    nl.addOutput("y");
    EXPECT_NO_THROW(nl.validate());
    EXPECT_THROW(nl.validate({/*maxFanIn=*/3}), FabricError);
}

TEST(Fabric, ValidateRejectsEmptyNetlist) {
    LogicNetlist nl;
    EXPECT_THROW(nl.validate(), FabricError);
}

// Regression: a 3-gate combinational loop must be caught at build time with
// the full cycle path in the message (the recursive evaluator would
// previously have recursed forever at run time).
TEST(Fabric, CombinationalCycleReportedWithPath) {
    LogicNetlist nl;
    nl.addInput("a");
    nl.addGate(GateOp::And, "x", {"a", "z"});
    nl.addGate(GateOp::Not, "y", {"x"});
    nl.addGate(GateOp::Not, "z", {"y"});
    nl.addOutput("z");
    try {
        nl.topoOrder();
        FAIL() << "cycle not detected";
    } catch (const FabricError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("combinational cycle"), std::string::npos) << msg;
        // All three nets appear, in dependency order around the loop.
        for (const char* net : {"x", "y", "z"})
            EXPECT_NE(msg.find(std::string(" ") + net), std::string::npos) << msg;
    }
    // validate() folds the same report into its aggregate error.
    EXPECT_NE(caught(nl).find("combinational cycle"), std::string::npos);
}

TEST(Fabric, FeedbackThroughDffIsNotACycle) {
    LogicNetlist nl;
    nl.addDff("q", "d");
    nl.addGate(GateOp::Not, "d", {"q"});
    nl.addOutput("q");
    EXPECT_NO_THROW(nl.validate());
}

TEST(Fabric, TopoOrderRespectsDependencies) {
    LogicNetlist nl;
    nl.addInput("a");
    nl.addInput("b");
    // Declared out of dependency order on purpose.
    nl.addGate(GateOp::Or, "y", {"t", "u"});
    nl.addGate(GateOp::And, "t", {"a", "b"});
    nl.addGate(GateOp::Xor, "u", {"a", "t"});
    nl.addOutput("y");
    const auto order = nl.topoOrder();
    ASSERT_EQ(order.size(), 3u);
    std::vector<int> pos(nl.gates().size());
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = static_cast<int>(i);
    // gate 0 (y) reads gates 1 (t) and 2 (u); gate 2 reads gate 1.
    EXPECT_GT(pos[0], pos[1]);
    EXPECT_GT(pos[0], pos[2]);
    EXPECT_GT(pos[2], pos[1]);
}

TEST(Fabric, EvalGateTruthTables) {
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::And, {1, 1, 1}), 1);
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::And, {1, 0, 1}), 0);
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::Nand, {1, 1}), 0);
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::Or, {0, 0, 1}), 1);
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::Nor, {0, 0}), 1);
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::Xor, {1, 1, 1}), 1);
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::Xnor, {1, 0}), 0);
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::Maj, {1, 0, 1}), 1);
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::Maj, {1, 0, 0, 0, 1}), 0);
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::Buf, {1}), 1);
    EXPECT_EQ(LogicNetlist::evalGate(GateOp::Not, {1}), 0);
}

TEST(Fabric, StepImplementsSynchronousSemantics) {
    // Toggle bit: out_k shows state_k, state advances after.
    LogicNetlist nl;
    nl.addDff("q", "d");
    nl.addGate(GateOp::Not, "d", {"q"});
    nl.addOutput("q");
    nl.addOutput("d");
    std::vector<int> state{0};
    for (int k = 0; k < 4; ++k) {
        const auto out = nl.step({}, state);
        EXPECT_EQ(out[0], k % 2) << "slot " << k;
        EXPECT_EQ(out[1], 1 - k % 2) << "slot " << k;
        EXPECT_EQ(state[0], 1 - k % 2) << "slot " << k;
    }
}

TEST(Fabric, ParserRoundTrip) {
    const auto nl = parseLogicNetlist(R"(
        # full adder
        input a b cin      // three inputs
        xor sum a b cin
        maj cout a b cin
        output sum cout
    )");
    EXPECT_EQ(nl.inputs().size(), 3u);
    EXPECT_EQ(nl.outputs().size(), 2u);
    EXPECT_EQ(nl.gates().size(), 2u);
    std::vector<int> state;
    for (int v = 0; v < 8; ++v) {
        const int a = v & 1, b = (v >> 1) & 1, c = (v >> 2) & 1;
        const auto out = nl.step({a, b, c}, state);
        EXPECT_EQ(out[0] + 2 * out[1], a + b + c) << "v=" << v;
    }
}

TEST(Fabric, ParserReportsLineNumbers) {
    try {
        parseLogicNetlist("input a\nfrobnicate y a\n");
        FAIL() << "bad op accepted";
    } catch (const FabricError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("frobnicate"), std::string::npos) << msg;
    }
    EXPECT_THROW(parseLogicNetlist("dff q\n"), FabricError);          // arity
    EXPECT_THROW(parseLogicNetlist("input a\noutput a\nnot b\n"), FabricError);
}

TEST(Fabric, GateOpNamesRoundTrip) {
    for (const auto op : {GateOp::Buf, GateOp::Not, GateOp::And, GateOp::Nand, GateOp::Or,
                          GateOp::Nor, GateOp::Xor, GateOp::Xnor, GateOp::Maj})
        EXPECT_EQ(gateOpFromName(gateOpName(op)), op);
    EXPECT_THROW(gateOpFromName("nandify"), FabricError);
}

// ---------------------------------------------------------------------------
// Workload generators against integer arithmetic (the netlist Boolean layer
// itself — the phase-domain equivalence harness then trusts these as golden).
// ---------------------------------------------------------------------------

TEST(FabricWorkloads, RippleAdderMatchesIntegerAdd) {
    const auto nl = rippleAdder(4);
    std::vector<int> state;
    for (std::uint64_t a = 0; a < 16; ++a)
        for (std::uint64_t b = 0; b < 16; ++b)
            for (std::uint64_t cin = 0; cin < 2; ++cin) {
                auto in = toBits(a, 4);
                const auto bb = toBits(b, 4);
                in.insert(in.end(), bb.begin(), bb.end());
                in.push_back(static_cast<int>(cin));
                EXPECT_EQ(fromBits(nl.step(in, state)), a + b + cin);
            }
}

TEST(FabricWorkloads, CarrySelectAdderMatchesIntegerAdd) {
    const auto nl = carrySelectAdder(8, 3);
    std::vector<int> state;
    for (std::uint64_t a = 0; a < 256; a += 7)
        for (std::uint64_t b = 0; b < 256; b += 5)
            for (std::uint64_t cin = 0; cin < 2; ++cin) {
                auto in = toBits(a, 8);
                const auto bb = toBits(b, 8);
                in.insert(in.end(), bb.begin(), bb.end());
                in.push_back(static_cast<int>(cin));
                EXPECT_EQ(fromBits(nl.step(in, state)), a + b + cin);
            }
}

TEST(FabricWorkloads, Multiplier4x4MatchesIntegerMul) {
    const auto nl = multiplier4x4();
    std::vector<int> state;
    for (std::uint64_t a = 0; a < 16; ++a)
        for (std::uint64_t b = 0; b < 16; ++b) {
            auto in = toBits(a, 4);
            const auto bb = toBits(b, 4);
            in.insert(in.end(), bb.begin(), bb.end());
            EXPECT_EQ(fromBits(nl.step(in, state)), a * b) << a << "*" << b;
        }
}

TEST(FabricWorkloads, UpCounterCounts) {
    const auto nl = upCounter(4);
    std::vector<int> state(nl.dffs().size(), 0);
    for (std::uint64_t k = 0; k < 40; ++k)
        EXPECT_EQ(fromBits(nl.step({}, state)), k % 16) << "tick " << k;
}

TEST(FabricWorkloads, LfsrHasFullPeriodFromZeroState) {
    const auto nl = lfsr(4);
    std::vector<int> state(nl.dffs().size(), 0);
    std::vector<std::uint64_t> seen;
    for (int k = 0; k < 15; ++k) seen.push_back(fromBits(nl.step({}, state)));
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    // XNOR-feedback Fibonacci LFSR visits 2^n - 1 states (all but 1111).
    EXPECT_EQ(seen.size(), 15u);
}

TEST(FabricWorkloads, RegisteredRippleAdderDelaysOneSlot) {
    const auto nl = registeredRippleAdder(4);
    std::vector<int> state(nl.dffs().size(), 0);
    std::uint64_t prev = 0;  // power-on registers
    for (const auto& [a, b] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {3, 5}, {15, 15}, {9, 0}, {7, 8}}) {
        auto in = toBits(a, 4);
        const auto bb = toBits(b, 4);
        in.insert(in.end(), bb.begin(), bb.end());
        in.push_back(0);
        EXPECT_EQ(fromBits(nl.step(in, state)), prev);
        prev = a + b;
    }
}

TEST(FabricWorkloads, GeneratorsRejectDegenerateWidths) {
    EXPECT_THROW(rippleAdder(0), FabricError);
    EXPECT_THROW(registeredRippleAdder(0), FabricError);
    EXPECT_THROW(carrySelectAdder(0, 4), FabricError);
    EXPECT_THROW(carrySelectAdder(8, 0), FabricError);
    EXPECT_THROW(upCounter(0), FabricError);
    EXPECT_THROW(lfsr(1), FabricError);
    EXPECT_THROW(shiftRegister(0), FabricError);
}

TEST(Workloads, SerialAdderMatchesGolden) {
    // One slot of serialAdder() is one bit of goldenSerialAdd: outputs
    // {sum, cout}, and cout becomes the next slot's carry.
    const auto nl = serialAdder();
    ASSERT_EQ(nl.dffs().size(), 1u);
    for (int carry = 0; carry < 2; ++carry)
        for (int a = 0; a < 2; ++a)
            for (int b = 0; b < 2; ++b) {
                std::vector<int> state{carry};
                Bits gc;
                const Bits gs = goldenSerialAdd({a}, {b}, carry, &gc);
                EXPECT_EQ(nl.step({a, b}, state), (std::vector<int>{gs[0], gc[0]}))
                    << "a=" << a << " b=" << b << " carry=" << carry;
                EXPECT_EQ(state, gc);
            }

    phlogon::num::SplitMix64 rng(0x5EA1);
    Bits a, b;
    for (int k = 0; k < 96; ++k) {
        a.push_back(static_cast<int>(rng() & 1u));
        b.push_back(static_cast<int>(rng() & 1u));
    }
    Bits gc;
    const Bits gs = goldenSerialAdd(a, b, 0, &gc);
    std::vector<int> state(1, 0);
    for (std::size_t k = 0; k < a.size(); ++k)
        EXPECT_EQ(nl.step({a[k], b[k]}, state), (std::vector<int>{gs[k], gc[k]})) << "slot " << k;
}

TEST(FabricWorkloads, ShiftRegisterDelaysNSlots) {
    const auto nl = shiftRegister(3);
    std::vector<int> state(nl.dffs().size(), 0);
    const std::vector<int> in{1, 0, 1, 1, 0, 1, 0, 0};
    for (std::size_t k = 0; k < in.size(); ++k) {
        const auto out = nl.step({in[k]}, state);
        const int want = k >= 3 ? in[k - 3] : 0;
        EXPECT_EQ(out[0], want) << "slot " << k;
    }
}
