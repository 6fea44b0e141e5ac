#include "core/noise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/osc_fixture.hpp"
#include "common/scoped_env.hpp"
#include "core/gae_sweep.hpp"

namespace phlogon::core {
namespace {

const PpvModel& model() { return testutil::sharedOsc().model(); }
std::size_t injNode() { return testutil::sharedOsc().outputUnknown(); }

TEST(PhaseDiffusion, ZeroForZeroPsd) {
    EXPECT_DOUBLE_EQ(phaseDiffusion(model(), {{injNode(), 0.0}}), 0.0);
}

TEST(PhaseDiffusion, LinearInPsd) {
    const double c1 = phaseDiffusion(model(), {{injNode(), 1e-22}});
    const double c2 = phaseDiffusion(model(), {{injNode(), 2e-22}});
    EXPECT_GT(c1, 0.0);
    EXPECT_NEAR(c2, 2.0 * c1, 1e-12 * c2);
}

TEST(PhaseDiffusion, AdditiveOverSources) {
    const double cA = phaseDiffusion(model(), {{injNode(), 1e-22}});
    const double cB = phaseDiffusion(model(), {{0, 3e-22}});
    const double cBoth = phaseDiffusion(model(), {{injNode(), 1e-22}, {0, 3e-22}});
    EXPECT_NEAR(cBoth, cA + cB, 1e-12 * cBoth);
}

TEST(PhaseDiffusion, Validation) {
    EXPECT_THROW(phaseDiffusion(model(), {{9999, 1e-22}}), std::invalid_argument);
    EXPECT_THROW(phaseDiffusion(PpvModel{}, {}), std::invalid_argument);
}

TEST(ResistorNoise, JohnsonFormula) {
    // 4kT/R at 300 K for 1 kohm ~ 1.66e-23 A^2/Hz.
    EXPECT_NEAR(resistorCurrentPsd(1e3), 1.66e-23, 0.01e-23);
    EXPECT_THROW(resistorCurrentPsd(0.0), std::invalid_argument);
}

TEST(StochasticGae, ZeroNoiseMatchesDeterministic) {
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    const auto stable = gae.stableEquilibria();
    ASSERT_EQ(stable.size(), 2u);
    const auto r = stochasticGaeTransient(gae, 0.0, stable[0].dphi + 0.05, 0.0, 40.0 / d.f1);
    ASSERT_TRUE(r.ok);
    EXPECT_LT(phaseDistance(r.dphi.back(), stable[0].dphi), 2e-3);
}

TEST(StochasticGae, Reproducible) {
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    StochasticGaeOptions opt;
    opt.seed = 7;
    const double c = 1e-9;
    const auto r1 = stochasticGaeTransient(gae, c, 0.1, 0.0, 10.0 / d.f1, opt);
    const auto r2 = stochasticGaeTransient(gae, c, 0.1, 0.0, 10.0 / d.f1, opt);
    ASSERT_TRUE(r1.ok && r2.ok);
    ASSERT_EQ(r1.dphi.size(), r2.dphi.size());
    for (std::size_t i = 0; i < r1.dphi.size(); ++i)
        EXPECT_DOUBLE_EQ(r1.dphi[i], r2.dphi[i]);

    // storeEvery = 0 counts as 1: every step is stored, no division by zero.
    opt.storeEvery = 1;
    const auto every = stochasticGaeTransient(gae, c, 0.1, 0.0, 10.0 / d.f1, opt);
    opt.storeEvery = 0;
    const auto zero = stochasticGaeTransient(gae, c, 0.1, 0.0, 10.0 / d.f1, opt);
    ASSERT_TRUE(every.ok && zero.ok);
    EXPECT_GT(every.t.size(), r1.t.size());
    EXPECT_EQ(zero.t, every.t);
    EXPECT_EQ(zero.dphi, every.dphi);
}

TEST(StochasticGae, FreeRunningVarianceMatchesDiffusion) {
    // Without injections the phase performs pure Brownian motion:
    // var(dphi(t)) = f0^2 c t.  Check the Monte-Carlo variance against the
    // formula within statistical tolerance.
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.model.f0(), {Injection::tone(injNode(), 0.0, 1)});
    const double c = 2e-10;
    const double span = 20.0 / d.model.f0();
    const std::size_t trials = 300;
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t k = 0; k < trials; ++k) {
        StochasticGaeOptions opt;
        opt.seed = 1000 + k;
        opt.storeEvery = 1u << 20;
        const auto r = stochasticGaeTransient(gae, c, 0.0, 0.0, span, opt);
        sum += r.dphi.back();
        sum2 += r.dphi.back() * r.dphi.back();
    }
    const double var = sum2 / trials - (sum / trials) * (sum / trials);
    const double expected = d.model.f0() * d.model.f0() * c * span;
    EXPECT_NEAR(var, expected, 0.25 * expected);  // ~sqrt(2/300) ~ 8% stat error
}

TEST(HoldError, NoNoiseNoErrors) {
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    const auto r = holdErrorProbability(gae, 0.0, d.reference.phase1, 30.0 / d.f1, 20);
    EXPECT_EQ(r.trials, 20u);
    EXPECT_EQ(r.errors, 0u);
}

TEST(HoldError, ExtremeNoiseRandomizesTheBit) {
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    // Diffusion so strong the phase random-walks across many cycles.
    const auto r = holdErrorProbability(gae, 1e-4, d.reference.phase1, 30.0 / d.f1, 60);
    EXPECT_GT(r.errorRate(), 0.2);
}

TEST(HoldError, StrongerSyncHoldsBetter) {
    // The noise-immunity design knob: the SHIL barrier grows with SYNC, so
    // the bit-loss rate at fixed noise must drop.
    const auto& osc = testutil::sharedOsc();
    const double c = 2e-7;  // calibrated so the weak latch loses ~30% of bits
    const double span = 60.0 / osc.f0();
    auto rate = [&](double syncAmp) {
        const Gae gae(osc.model(), testutil::kF1,
                      {Injection::tone(osc.outputUnknown(), syncAmp, 2)});
        const auto stable = gae.stableEquilibria();
        EXPECT_EQ(stable.size(), 2u);
        return holdErrorProbability(gae, c, stable[0].dphi, span, 120).errorRate();
    };
    const double weak = rate(60e-6);
    const double strong = rate(300e-6);
    EXPECT_GT(weak, strong);
    EXPECT_GT(weak, 0.02);  // the weak latch must actually lose bits here
}

TEST(HoldErrorBatched, ZeroNoiseNoErrors) {
    // 130 trials: two full lane blocks and a ragged third.
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    const auto r = holdErrorProbability(gae, 0.0, d.reference.phase1, 30.0 / d.f1, 130);
    EXPECT_EQ(r.trials, 130u);
    EXPECT_EQ(r.errors, 0u);
}

TEST(HoldErrorBatched, BitwiseStableAcrossThreadsAndBatchSize) {
    // The PR-1 determinism contract on the lane-block engine: trial k's
    // arithmetic depends only on (seed, k), never on how trials are grouped
    // into lanes.  So any split of the ensemble into holdErrorProbabilityRange
    // chunks, at any thread count, sums to the counts of one full run.
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    const double c = 2e-7;
    const double span = 40.0 / d.f1;
    const std::size_t total = 96;
    StochasticGaeOptions opt;
    opt.seed = 12345;
    const auto baseline = holdErrorProbability(gae, c, d.reference.phase1, span, total, opt);
    EXPECT_EQ(baseline.trials, total);
    EXPECT_GT(baseline.errors, 0u);  // the split must have errors to misplace
    for (const char* threads : {"1", "3", "4"}) {
        testutil::ScopedThreadsEnv env(threads);
        for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
            HoldErrorResult sum;
            for (std::size_t first = 0; first < total; first += chunk) {
                const auto r = holdErrorProbabilityRange(gae, c, d.reference.phase1, span, first,
                                                         std::min(chunk, total - first), opt);
                sum.trials += r.trials;
                sum.errors += r.errors;
            }
            EXPECT_EQ(sum.errors, baseline.errors)
                << "threads=" << threads << " chunk=" << chunk;
            EXPECT_EQ(sum.trials, baseline.trials);
        }
    }
}

TEST(HoldErrorBatched, SimdOnEqualsOff) {
    // The vector tier must be bitwise-invisible.  "Off" is each trial's
    // scalar one-lane sample path (stochasticGaeTransient); "on" is the
    // engine on the process-wide tier, run in lane blocks of 1, 5 and 48.
    // Every block's count must equal the sum of its trials' path outcomes.
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    const double c = 2e-7;
    const double span = 40.0 / d.f1;
    const std::size_t trials = 48;
    const auto stable = gae.stableEquilibria();
    const auto nearest = [&](double phase) {
        double best = stable[0].dphi;
        for (const auto& e : stable)
            if (phaseDistance(e.dphi, phase) < phaseDistance(best, phase)) best = e.dphi;
        return best;
    };
    const double start = nearest(d.reference.phase1);
    StochasticGaeOptions opt;
    opt.seed = 777;
    std::vector<std::size_t> lost(trials);
    std::size_t pathErrors = 0;
    for (std::size_t k = 0; k < trials; ++k) {
        StochasticGaeOptions one = opt;
        one.seed = opt.seed + 0x9e3779b97f4a7c15ull * k;
        one.storeEvery = 1u << 20;
        const auto path = stochasticGaeTransient(gae, c, start, 0.0, span, one);
        ASSERT_TRUE(path.ok);
        lost[k] = nearest(path.dphi.back()) != start ? 1 : 0;
        pathErrors += lost[k];
    }
    EXPECT_GT(pathErrors, 0u);  // both outcomes must occur for the check to bite
    EXPECT_LT(pathErrors, trials);
    for (const std::size_t block : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
        for (std::size_t first = 0; first < trials; first += block) {
            const std::size_t n = std::min(block, trials - first);
            const auto r = holdErrorProbabilityRange(gae, c, d.reference.phase1, span, first, n, opt);
            std::size_t want = 0;
            for (std::size_t k = first; k < first + n; ++k) want += lost[k];
            EXPECT_EQ(r.trials, n);
            EXPECT_EQ(r.errors, want) << "block=" << block << " first=" << first;
        }
    }
}

TEST(HoldErrorBatched, PinnedCount) {
    // One exact count, pinned: it holds on every SIMD tier (the simd-parity
    // CI job runs it under PHLOGON_SIMD=0 and =1) and moves only if the
    // engine's per-trial arithmetic does.
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    StochasticGaeOptions opt;
    opt.seed = 20150607;
    const auto r = holdErrorProbability(gae, 2e-7, d.reference.phase1, 60.0 / d.f1, 512, opt);
    EXPECT_EQ(r.trials, 512u);
    EXPECT_EQ(r.errors, 143u);
}

TEST(HoldErrorBatched, AgreesWithScalarPhysics) {
    // The escape physics at both extremes: extreme noise randomizes the
    // bit, mild noise loses few bits.
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    const auto noisy = holdErrorProbability(gae, 1e-4, d.reference.phase1, 30.0 / d.f1, 60);
    EXPECT_GT(noisy.errorRate(), 0.2);
    const auto quiet = holdErrorProbability(gae, 1e-12, d.reference.phase1, 30.0 / d.f1, 60);
    EXPECT_LT(quiet.errorRate(), 0.05);
}

TEST(HoldErrorBatched, StrongerSyncHoldsBetter) {
    // The design-knob conclusion (Kramers escape over the SHIL barrier) on
    // a serial lane-block run.
    const auto& osc = testutil::sharedOsc();
    const double c = 2e-7;
    const double span = 60.0 / osc.f0();
    auto rate = [&](double syncAmp) {
        const Gae gae(osc.model(), testutil::kF1,
                      {Injection::tone(osc.outputUnknown(), syncAmp, 2)});
        const auto stable = gae.stableEquilibria();
        EXPECT_EQ(stable.size(), 2u);
        testutil::ScopedThreadsEnv serial("1");
        return holdErrorProbability(gae, c, stable[0].dphi, span, 120).errorRate();
    };
    const double weak = rate(60e-6);
    const double strong = rate(300e-6);
    EXPECT_GT(weak, strong);
    EXPECT_GT(weak, 0.02);
}

TEST(HoldError, RequiresLockedGae) {
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, 1.1 * d.model.f0(), {d.sync()});  // way outside range
    EXPECT_THROW(holdErrorProbability(gae, 1e-9, 0.0, 1e-3, 5), std::invalid_argument);
}

}  // namespace
}  // namespace phlogon::core
