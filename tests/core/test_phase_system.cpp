#include "core/phase_system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "common/osc_fixture.hpp"
#include "core/gae_sweep.hpp"

namespace phlogon::core {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

const PpvModel& model() { return testutil::sharedOsc().model(); }
std::size_t injNode() { return testutil::sharedOsc().outputUnknown(); }

TEST(PhaseSystem, FreeRunningLatchDriftsAtDetuningRate) {
    PhaseSystem sys;
    sys.addLatch(model(), "osc");
    const double f1 = model().f0() * 1.001;
    const double span = 10.0 / f1;
    const auto r = sys.simulate(f1, 0.0, span, num::Vec{0.0});
    ASSERT_TRUE(r.ok);
    // d(dphi)/dt = f0 - f1 with no injections.
    EXPECT_NEAR(r.dphi[0].back(), (model().f0() - f1) * span, 1e-6);
}

TEST(PhaseSystem, SyncInjectionLocksPhase) {
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    const double f1 = testutil::kF1;
    const auto sync = sys.addExternal(
        [f1](double t) { return 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t); }, "sync");
    sys.connect(latch, injNode(), sync, 1.0);

    // Compare against the averaged GAE's stable phases.
    const Gae gae(model(), f1, {Injection::tone(injNode(), 100e-6, 2)});
    const auto stable = gae.stableEquilibria();
    ASSERT_EQ(stable.size(), 2u);

    const auto r = sys.simulate(f1, 0.0, 60.0 / f1, num::Vec{stable[0].dphi + 0.06});
    ASSERT_TRUE(r.ok);
    // The non-averaged simulation carries fast ripple and O(g) averaging
    // corrections relative to the averaged GAE equilibrium.
    EXPECT_LT(phaseDistance(r.dphi[0].back(), stable[0].dphi), 0.03);
}

TEST(PhaseSystem, NonAveragedMatchesGaeLockFromBothBasins) {
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    const double f1 = testutil::kF1;
    const auto sync = sys.addExternal(
        [f1](double t) { return 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t); }, "sync");
    sys.connect(latch, injNode(), sync, 1.0);
    const Gae gae(model(), f1, {Injection::tone(injNode(), 100e-6, 2)});
    const auto stable = gae.stableEquilibria();
    for (const auto& eq : stable) {
        const auto r = sys.simulate(f1, 0.0, 60.0 / f1, num::Vec{eq.dphi - 0.07});
        ASSERT_TRUE(r.ok);
        EXPECT_LT(phaseDistance(r.dphi[0].back(), eq.dphi), 0.03);
    }
}

TEST(PhaseSystem, GateComputesWeightedSum) {
    PhaseSystem sys;
    const auto a = sys.addExternal([](double) { return 0.5; });
    const auto b = sys.addExternal([](double) { return -0.25; });
    const auto g = sys.addGate({{a, 2.0}, {b, 4.0}}, false, 0.0);
    EXPECT_NEAR(sys.signalValue(g, 0.0, 1.0, {}), 0.0, 1e-12);
    const auto gi = sys.addGate({{a, 1.0}}, true, 0.0);
    EXPECT_NEAR(sys.signalValue(gi, 0.0, 1.0, {}), -0.5, 1e-12);
}

TEST(PhaseSystem, GateClipSaturates) {
    PhaseSystem sys;
    const auto a = sys.addExternal([](double) { return 10.0; });
    const auto g = sys.addGate({{a, 1.0}}, false, 0.5);
    EXPECT_NEAR(sys.signalValue(g, 0.0, 1.0, {}), 0.5, 1e-6);
}

TEST(PhaseSystem, GateRejectsForwardReferences) {
    PhaseSystem sys;
    const auto a = sys.addExternal([](double) { return 0.0; });
    EXPECT_THROW(sys.addGate({{a + 5, 1.0}}), std::invalid_argument);
}

TEST(PhaseSystem, PlaceholderBindingAndLoopDetection) {
    PhaseSystem sys;
    const auto ph = sys.addPlaceholder("fwd");
    const auto a = sys.addExternal([](double) { return 2.0; });
    const auto g = sys.addGate({{ph, 1.0}, {a, 1.0}});
    // Binding the placeholder to a gate that depends on it is a loop.
    EXPECT_THROW(sys.bindPlaceholder(ph, g), std::invalid_argument);
    sys.bindPlaceholder(ph, a);
    EXPECT_NEAR(sys.signalValue(g, 0.0, 1.0, {}), 4.0, 1e-12);
}

TEST(PhaseSystem, PlaceholderCheckVisitsEachSignalOnce) {
    // Every gate reads the previous one twice: 49 signals but 2^48 paths
    // from the tail back to the head, so a walk that expands each path
    // instead of each signal never returns.
    PhaseSystem sys;
    const auto head = sys.addPlaceholder("head");
    PhaseSystem::SignalId g = head;
    for (int k = 0; k < 48; ++k) g = sys.addGate({{g, 0.5}, {g, 0.5}});
    const auto tail = sys.addPlaceholder("tail");
    sys.bindPlaceholder(tail, g);
    // Closing the chain onto its own head is a combinational loop.
    EXPECT_THROW(sys.bindPlaceholder(head, g), std::invalid_argument);
    EXPECT_THROW(sys.bindPlaceholder(head, tail), std::invalid_argument);
    sys.bindPlaceholder(head, sys.addExternal([](double) { return 1.0; }));
    EXPECT_EQ(sys.signalValue(tail, 0.0, 1.0, {}), 1.0);
}

TEST(PhaseSystem, UnboundPlaceholderThrowsOnEval) {
    PhaseSystem sys;
    const auto ph = sys.addPlaceholder("fwd");
    EXPECT_THROW(sys.signalValue(ph, 0.0, 1.0, {}), std::logic_error);
}

TEST(PhaseSystem, SignalValueNeedsEveryLatchPhase) {
    PhaseSystem sys;
    const auto out = sys.latchOutput(sys.addLatch(model(), "osc"));
    EXPECT_THROW(sys.signalValue(out, 0.0, 1.0, {}), std::invalid_argument);
    EXPECT_THROW(sys.signalValue(out, 0.0, 1.0, num::Vec{0.0, 0.0}), std::invalid_argument);
    EXPECT_NO_THROW(sys.signalValue(out, 0.0, 1.0, num::Vec{0.0}));
}

TEST(PhaseSystem, LatchOutputIsUnitFundamental) {
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    const auto out = sys.latchOutput(latch);
    const double f1 = model().f0();
    // At dphi = 0: peak at theta == dphiPeak, i.e. t = dphiPeak / f1.
    const num::Vec dphi{0.0};
    EXPECT_NEAR(sys.signalValue(out, model().dphiPeak() / f1, f1, dphi), 1.0, 1e-9);
    EXPECT_NEAR(sys.signalValue(out, (model().dphiPeak() + 0.5) / f1, f1, dphi), -1.0, 1e-9);
}

TEST(PhaseSystem, ConnectionDelayShiftsWritePhase) {
    // Delaying the injected tone by d cycles adds d to its phase chi; the
    // lock phase dphi* = offset - chi therefore moves by exactly -d.
    const double f1 = model().f0();
    auto lockWith = [&](double delayCycles) {
        PhaseSystem sys;
        const auto latch = sys.addLatch(model(), "osc");
        const auto toneSig = sys.addExternal(
            [f1](double t) { return 100e-6 * std::cos(kTwoPi * f1 * t); }, "in");
        sys.connect(latch, injNode(), toneSig, 1.0, delayCycles);
        const auto r = sys.simulate(f1, 0.0, 60.0 / f1, num::Vec{0.25});
        EXPECT_TRUE(r.ok);
        return num::wrap01(r.dphi[0].back());
    };
    const double base = lockWith(0.0);
    const double delayed = lockWith(0.2);
    // Each lock carries its own O(g) averaging correction; allow their sum.
    EXPECT_NEAR(phaseDistance(delayed, num::wrap01(base - 0.2)), 0.0, 0.02);
}

TEST(PhaseSystem, VoutReconstructionTracksPhase) {
    PhaseSystem sys;
    sys.addLatch(model(), "osc");
    const double f1 = model().f0();
    const auto r = sys.simulate(f1, 0.0, 2.0 / f1, num::Vec{0.0}, 64, 1);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.vout.size(), 1u);
    ASSERT_EQ(r.vout[0].size(), r.t.size());
    // vout must equal xs evaluated at theta(t).
    for (std::size_t i = 0; i < r.t.size(); i += 16) {
        const double theta = f1 * r.t[i] + r.dphi[0][i];
        EXPECT_NEAR(r.vout[0][i], model().xsAt(model().outputUnknown(), theta), 1e-9);
    }
}

TEST(PhaseSystem, SimulateValidatesArguments) {
    PhaseSystem sys;
    sys.addLatch(model(), "osc");
    EXPECT_THROW(sys.simulate(1.0, 0.0, 1.0, num::Vec{}), std::invalid_argument);
    EXPECT_THROW(sys.simulate(-1.0, 0.0, 1.0, num::Vec{0.0}), std::invalid_argument);
    EXPECT_THROW(sys.simulate(1.0, 1.0, 0.0, num::Vec{0.0}), std::invalid_argument);
}

TEST(PhaseSystem, ConnectValidatesIndices) {
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    EXPECT_THROW(sys.connect(latch, 9999, sys.latchOutput(latch), 1.0), std::invalid_argument);
    EXPECT_THROW(sys.connect(latch, injNode(), 42, 1.0), std::invalid_argument);
    EXPECT_THROW(sys.connect(latch + 1, injNode(), sys.latchOutput(latch), 1.0),
                 std::invalid_argument);
    // The out-of-range message must identify the offending latch and index so
    // a thousand-latch fabric build failure is debuggable.
    try {
        sys.connect(latch, 9999, sys.latchOutput(latch), 1.0);
        FAIL() << "connect accepted an out-of-range unknown index";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("9999"), std::string::npos) << msg;
        EXPECT_NE(msg.find("osc"), std::string::npos) << msg;
        EXPECT_NE(msg.find("unknown"), std::string::npos) << msg;
    }
}

TEST(PhaseSystem, SharedSignalMemoizationIsBitwiseNeutral) {
    // Two latches driven by the same external signal: the Program computes
    // the signal once per stage and both latches read that one value.  Each
    // latch's trajectory must be bitwise identical to a single-latch system
    // with the same drive (simulate uses fixed-step RK4, so the time grids
    // coincide exactly).
    const double f1 = testutil::kF1;
    auto drive = [f1](double t) { return 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t); };
    const double start = 0.1;
    const double span = 20.0 / f1;

    PhaseSystem solo;
    const auto l0 = solo.addLatch(model(), "osc");
    solo.connect(l0, injNode(), solo.addExternal(drive, "sync"), 1.0);
    const auto rs = solo.simulate(f1, 0.0, span, num::Vec{start});
    ASSERT_TRUE(rs.ok);

    PhaseSystem duo;
    const auto la = duo.addLatch(model(), "a");
    const auto lb = duo.addLatch(model(), "b");
    const auto sync = duo.addExternal(drive, "sync");
    duo.connect(la, injNode(), sync, 1.0);
    duo.connect(lb, injNode(), sync, 1.0);
    const auto rd = duo.simulate(f1, 0.0, span, num::Vec{start, start});
    ASSERT_TRUE(rd.ok);

    ASSERT_EQ(rd.t.size(), rs.t.size());
    for (std::size_t i = 0; i < rs.t.size(); ++i) {
        EXPECT_EQ(rd.dphi[0][i], rs.dphi[0][i]) << "i=" << i;
        EXPECT_EQ(rd.dphi[1][i], rs.dphi[0][i]) << "i=" << i;
    }
}

TEST(PhaseSystem, RepeatedSimulationsAreBitwiseReproducible) {
    // simulate keeps no state between calls: re-running it on the same
    // system must change nothing.
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    const double f1 = testutil::kF1;
    const auto sync = sys.addExternal(
        [f1](double t) { return 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t); }, "sync");
    const auto g = sys.addGate({{sync, 1.0}}, false, 0.0);
    sys.connect(latch, injNode(), g, 1.0);
    const auto r1 = sys.simulate(f1, 0.0, 15.0 / f1, num::Vec{0.2});
    const auto r2 = sys.simulate(f1, 0.0, 15.0 / f1, num::Vec{0.2});
    ASSERT_TRUE(r1.ok && r2.ok);
    ASSERT_EQ(r1.t.size(), r2.t.size());
    for (std::size_t i = 0; i < r1.t.size(); ++i)
        EXPECT_EQ(r1.dphi[0][i], r2.dphi[0][i]);
}

TEST(PhaseSystem, NonFinitePhaseFailsTheRun) {
    // The drive turns NaN after three cycles; the phase it drives stays NaN
    // from then on, so the run must fail rather than return NaN phases with
    // ok set.  Storing only every 1000th step still sees it in the last point.
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    const double f1 = testutil::kF1;
    const double tBad = 3.0 / f1;
    const auto drive = sys.addExternal(
        [f1, tBad](double t) {
            return t < tBad ? 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t)
                            : std::numeric_limits<double>::quiet_NaN();
        },
        "drive");
    sys.connect(latch, injNode(), drive, 1.0);
    EXPECT_TRUE(sys.simulate(f1, 0.0, 2.0 / f1, num::Vec{0.1}).ok);
    const auto r = sys.simulate(f1, 0.0, 10.0 / f1, num::Vec{0.1}, 64, 1000);
    EXPECT_FALSE(r.ok);
}

TEST(PhaseSystem, DelayGroupEvaluatesOnlyItsCone) {
    // SYNC drives the latch directly (the delay-0 group); the data external
    // reaches it only through a gate on a delayed connection.  Each group's
    // pass evaluates just the signals its connections read, so every
    // external runs once per RK stage: 4 times per step.
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    const double f1 = testutil::kF1;
    std::size_t syncCalls = 0, dataCalls = 0;
    const auto sync = sys.addExternal(
        [&syncCalls, f1](double t) {
            ++syncCalls;
            return 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t);
        },
        "sync");
    const auto data = sys.addExternal(
        [&dataCalls, f1](double t) {
            ++dataCalls;
            return std::cos(kTwoPi * f1 * t);
        },
        "data");
    const auto gate = sys.addGate({{data, 1.0}, {sys.latchOutput(latch), 0.5}}, false, 1.0);
    sys.connect(latch, injNode(), sync, 1.0);
    sys.connect(latch, injNode(), gate, 20e-6, 0.25);
    const auto r = sys.simulate(f1, 0.0, 5.0 / f1, num::Vec{0.1});
    ASSERT_TRUE(r.ok);
    const std::size_t steps = r.t.size() - 1;
    EXPECT_EQ(syncCalls, 4 * steps);
    EXPECT_EQ(dataCalls, 4 * steps);
}

TEST(PhaseSystem, ConeProgramMatchesFullProgram) {
    // Three gate levels over two latches, clipped and unclipped and inverted
    // gates in one level, and a placeholder root.  The Program over the
    // cone of {g3, ph} gives the full Program's bits on every cone signal
    // and leaves the rest of `out` alone.
    PhaseSystem sys;
    const auto o0 = sys.latchOutput(sys.addLatch(model(), "l0"));
    const auto o1 = sys.latchOutput(sys.addLatch(model(), "l1"));
    const auto a = sys.addExternal([](double t) { return 0.3 + t; });
    const auto b = sys.addExternal([](double t) { return -0.8 * t; });
    const auto ph = sys.addPlaceholder("ph");
    const auto g1 = sys.addGate({{a, 0.7}, {o0, -1.3}}, false, 0.8);
    const auto g2 = sys.addGate({{b, 0.4}, {o1, 2.0}}, true, 0.0);
    const auto g3 = sys.addGate({{g1, 1.0}, {ph, 0.5}, {g2, -0.25}}, true, 0.6);
    const auto g4 = sys.addGate({{g3, 1.1}, {a, 0.3}});
    sys.bindPlaceholder(ph, g2);

    const PhaseSystem::Program full(sys);
    const PhaseSystem::Program cone(sys, {g3, ph});
    const num::Vec dphi{0.13, 0.61};
    const double sentinel = 12345.0;
    for (const double t : {0.0, 0.37, 1.9}) {
        std::vector<double> want(sys.signalCount(), sentinel), got(sys.signalCount(), sentinel);
        full.eval(t, 1.0, dphi, want);
        cone.eval(t, 1.0, dphi, got);
        for (const auto id : {o0, o1, a, b, ph, g1, g2, g3}) {
            EXPECT_NE(want[static_cast<std::size_t>(id)], sentinel);
            EXPECT_EQ(got[static_cast<std::size_t>(id)], want[static_cast<std::size_t>(id)])
                << "signal " << id << " t=" << t;
        }
        EXPECT_EQ(got[static_cast<std::size_t>(g4)], sentinel);
        EXPECT_NEAR(want[static_cast<std::size_t>(g4)], 1.1 * want[static_cast<std::size_t>(g3)] + 0.3 * (0.3 + t), 1e-15);
        EXPECT_NEAR(want[static_cast<std::size_t>(g1)],
                    0.8 * std::tanh((0.7 * (0.3 + t) - 1.3 * want[static_cast<std::size_t>(o0)]) / 0.8),
                    1e-15);
        EXPECT_EQ(want[static_cast<std::size_t>(ph)], want[static_cast<std::size_t>(g2)]);
    }
}

TEST(PhaseSystem, TwoLatchesIndependentWhenUncoupled) {
    PhaseSystem sys;
    sys.addLatch(model(), "a");
    sys.addLatch(model(), "b");
    const double f1 = model().f0() * 1.0005;
    const auto r = sys.simulate(f1, 0.0, 10.0 / f1, num::Vec{0.1, 0.4});
    ASSERT_TRUE(r.ok);
    // Same drift applied to both, initial separation preserved.
    EXPECT_NEAR(r.dphi[1].back() - r.dphi[0].back(), 0.3, 1e-9);
}

}  // namespace
}  // namespace phlogon::core
