#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "numeric/counters.hpp"
#include "numeric/parallel.hpp"

namespace phlogon::obs {
namespace {

// ---- metric primitives (work in every build mode) -------------------------

TEST(MetricPrimitives, CounterAddsAndResets) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricPrimitives, GaugeTracksHighWater) {
    Gauge g;
    g.set(5);
    g.set(12);
    g.set(3);
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(g.max(), 12);
    g.add(20);
    EXPECT_EQ(g.value(), 23);
    EXPECT_EQ(g.max(), 23);
    g.reset();
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.max(), 0);
}

TEST(MetricPrimitives, HistogramCountsAndBounds) {
    Histogram h;
    h.observe(1e-6);
    h.observe(2e-6);
    h.observe(1e-3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_NEAR(h.totalSeconds(), 1e-3 + 3e-6, 1e-9);
    EXPECT_LE(h.minSeconds(), 1.1e-6);
    EXPECT_GE(h.maxSeconds(), 0.9e-3);
    // Quantiles come from log2-bin midpoints: order must hold, values land
    // within a bin factor (2x) of the exact answer.
    EXPECT_LE(h.quantileSeconds(0.5), h.quantileSeconds(0.95));
    EXPECT_GE(h.quantileSeconds(0.95), 0.5e-3);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(MetricPrimitives, QuantilesStayInsideObservedRange) {
    // 0.6 ms and 1.0 ms share the [2^19, 2^20) ns bin, whose midpoint is
    // 0.741 ms: above the first observation and below the second.  A
    // quantile of one observation is that observation, in both histograms.
    for (const double seconds : {0.6e-3, 1.0e-3}) {
        SCOPED_TRACE(seconds);
        Histogram h;
        h.observe(seconds);
        EXPECT_EQ(h.quantileSeconds(0.5), h.maxSeconds());
        EXPECT_EQ(h.quantileSeconds(0.95), h.minSeconds());
        EXPECT_NEAR(h.quantileSeconds(0.5), seconds, 1e-9);

        WindowedHistogram w;
        w.observeAt(seconds, 0);
        const WindowedHistogram::Stats s = w.statsAt(0);
        EXPECT_EQ(s.p50Seconds, s.maxSeconds);
        EXPECT_EQ(s.p99Seconds, s.maxSeconds);
        EXPECT_NEAR(s.p50Seconds, seconds, 1e-9);
    }
}

#ifndef PHLOGON_NO_OBS

class MetricsOn : public ::testing::Test {
protected:
    void SetUp() override {
        setMetricsEnabled(true);
        MetricsRegistry::instance().reset();
    }
    void TearDown() override {
        MetricsRegistry::instance().reset();
        setMetricsEnabled(false);
    }
};

std::uint64_t counterValue(const std::string& name) {
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    for (const auto& c : snap.counters)
        if (c.name == name) return c.value;
    return 0;
}

TEST_F(MetricsOn, RegistryReturnsStableReferences) {
    Counter& a = MetricsRegistry::instance().counter("test.stable");
    Counter& b = MetricsRegistry::instance().counter("test.stable");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(counterValue("test.stable"), 7u);
}

TEST_F(MetricsOn, SnapshotIsSortedByName) {
    MetricsRegistry::instance().counter("test.zz").add();
    MetricsRegistry::instance().counter("test.aa").add();
    MetricsRegistry::instance().gauge("test.g").set(1);
    MetricsRegistry::instance().histogram("test.h").observe(1e-6);
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    for (std::size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
    EXPECT_FALSE(snap.gauges.empty());
    EXPECT_FALSE(snap.histograms.empty());
}

TEST_F(MetricsOn, MacroCountsExactlyWhenEnabled) {
    for (int i = 0; i < 100; ++i) PHLOGON_ADD_METRIC("test.macro", 2);
    PHLOGON_COUNT_METRIC("test.macro");
    EXPECT_EQ(counterValue("test.macro"), 201u);
}

TEST_F(MetricsOn, MacroIsInertWhenDisabled) {
    setMetricsEnabled(false);
    PHLOGON_COUNT_METRIC("test.inert");
    setMetricsEnabled(true);
    EXPECT_EQ(counterValue("test.inert"), 0u);
}

// The TSAN job runs this: every worker hammers the same counters, gauges and
// histograms through the registry while other workers race the same names.
TEST_F(MetricsOn, RegistryHammerFromParallelWorkers) {
    const std::size_t n = 512;
    num::parallelFor(
        n,
        [](std::size_t i) {
            PHLOGON_COUNT_METRIC("test.hammer");
            MetricsRegistry::instance().counter("test.hammer.lookup").add();
            MetricsRegistry::instance()
                .counter("test.hammer." + std::to_string(i % 7))
                .add();
            MetricsRegistry::instance().gauge("test.hammer.gauge").set(
                static_cast<std::int64_t>(i));
            MetricsRegistry::instance().histogram("test.hammer.hist").observe(
                1e-6 * static_cast<double>(i + 1));
            if (i % 3 == 0) (void)MetricsRegistry::instance().snapshot();
        },
        4);
    EXPECT_EQ(counterValue("test.hammer"), n);
    EXPECT_EQ(counterValue("test.hammer.lookup"), n);
    std::uint64_t modSum = 0;
    for (int k = 0; k < 7; ++k)
        modSum += counterValue("test.hammer." + std::to_string(k));
    EXPECT_EQ(modSum, n);
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    for (const auto& h : snap.histograms) {
        if (h.name == "test.hammer.hist") {
            EXPECT_EQ(h.count, n);
        }
    }
}

// Enabling metrics must not perturb deterministic parallel results: the
// slot-per-index contract holds bit-for-bit with collection on.
TEST_F(MetricsOn, CollectionDoesNotPerturbParallelResults) {
    const std::size_t n = 200;
    const auto body = [](std::size_t i) {
        double acc = 0.0;
        for (std::size_t k = 0; k <= i; ++k) acc += 1.0 / static_cast<double>(k + 1);
        return acc;
    };
    std::vector<double> off(n), on(n);
    setMetricsEnabled(false);
    num::parallelFor(
        n, [&](std::size_t i) { off[i] = body(i); }, 4);
    setMetricsEnabled(true);
    num::parallelFor(
        n,
        [&](std::size_t i) {
            PHLOGON_COUNT_METRIC("test.perturb");
            on[i] = body(i);
        },
        4);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(off[i], on[i]) << i;
    EXPECT_EQ(counterValue("test.perturb"), n);
    // parallelFor mirrored its own stats while metrics were on.
    EXPECT_GE(counterValue("pool.tasks"), n);
}

TEST_F(MetricsOn, RecordSolverCountersFeedsSolverMetrics) {
    num::SolverCounters c;
    c.newtonIters = 11;
    c.rhsEvals = 22;
    c.jacEvals = 33;
    c.luFactorizations = 44;
    c.steps = 55;
    c.rejectedSteps = 6;
    c.dampingEvents = 7;
    c.wallSeconds = 1e-3;
    recordSolverCounters("testrun", c);
    EXPECT_EQ(counterValue("newton.iters"), 11u);
    EXPECT_EQ(counterValue("newton.rhsEvals"), 22u);
    EXPECT_EQ(counterValue("newton.jacEvals"), 33u);
    EXPECT_EQ(counterValue("lu.factorizations"), 44u);
    EXPECT_EQ(counterValue("steps.accepted"), 55u);
    EXPECT_EQ(counterValue("steps.rejected"), 6u);
    EXPECT_EQ(counterValue("newton.dampingEvents"), 7u);
    EXPECT_EQ(counterValue("analysis.testrun.runs"), 1u);
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    bool sawWall = false;
    for (const auto& h : snap.histograms)
        if (h.name == "analysis.testrun.wall") {
            sawWall = true;
            EXPECT_EQ(h.count, 1u);
        }
    EXPECT_TRUE(sawWall);
}

#endif  // PHLOGON_NO_OBS

}  // namespace
}  // namespace phlogon::obs
