// Determinism harness for the parallel sweep/ensemble layer: every parallel
// path must produce *bitwise identical* results at any thread count, because
// each index writes into its own pre-sized slot and all per-trial randomness
// is derived from the trial index (core::deriveTrialSeed), never drawn from
// a shared engine.  These tests pin PHLOGON_THREADS=1 (the exact serial loop)
// against 4 threads with EXPECT_EQ on doubles — exact equality, no tolerance.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/osc_fixture.hpp"
#include "common/scoped_env.hpp"
#include "common/stochastic_gae_oracle.hpp"
#include "core/gae_sweep.hpp"
#include "core/noise.hpp"
#include "numeric/parallel.hpp"

namespace phlogon::core {
namespace {

using testutil::ScopedThreadsEnv;
using testutil::stochasticGaeTransient;

/// fn() evaluated under PHLOGON_THREADS=1 and then =4.
template <class Fn>
auto serialAndParallel(Fn fn) {
    ScopedThreadsEnv one("1");
    auto serial = fn();
    ScopedThreadsEnv four("4");
    return std::pair(std::move(serial), fn());
}

const PpvModel& model() { return testutil::sharedOsc().model(); }
std::size_t injNode() { return testutil::sharedOsc().outputUnknown(); }

num::Vec amplitudeGrid() {
    num::Vec amps;
    for (double a = 10e-6; a <= 200e-6; a += 10e-6) amps.push_back(a);
    return amps;
}

TEST(SweepDeterminism, LockingRangeVsAmplitudeBitwiseEqual) {
    const Injection unit = Injection::tone(injNode(), 1.0, 2);
    const num::Vec amps = amplitudeGrid();
    const auto [serial, par] =
        serialAndParallel([&] { return lockingRangeVsAmplitude(model(), unit, amps); });
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].amplitude, par[i].amplitude);
        EXPECT_EQ(serial[i].range.locks, par[i].range.locks);
        EXPECT_EQ(serial[i].range.fLow, par[i].range.fLow);
        EXPECT_EQ(serial[i].range.fHigh, par[i].range.fHigh);
    }
}

TEST(SweepDeterminism, LockingRangeExactVariantBitwiseEqual) {
    // The unit-scaled sweep agrees with one lockingRange per amplitude (one
    // GAE each) to rounding, because g is linear in a tone's amplitude.
    const Injection unit = Injection::tone(injNode(), 1.0, 2);
    const num::Vec amps{30e-6, 70e-6, 120e-6, 180e-6};
    for (const char* threads : {"1", "4"}) {
        ScopedThreadsEnv env(threads);
        const auto pts = lockingRangeVsAmplitude(model(), unit, amps, 512);
        ASSERT_EQ(pts.size(), amps.size());
        for (std::size_t i = 0; i < amps.size(); ++i) {
            const LockingRange exact = lockingRange(model(), {unit.scaled(amps[i])}, 512);
            EXPECT_NEAR(pts[i].range.fLow, exact.fLow, 1e-12 * exact.fLow) << threads;
            EXPECT_NEAR(pts[i].range.fHigh, exact.fHigh, 1e-12 * exact.fHigh) << threads;
        }
    }
}

TEST(SweepDeterminism, LockPhaseErrorSweepBitwiseEqual) {
    const std::vector<Injection> inj{Injection::tone(injNode(), 100e-6, 2)};
    const LockingRange range = lockingRange(model(), inj);
    ASSERT_TRUE(range.locks);
    num::Vec grid;
    for (std::size_t i = 0; i < 21; ++i)
        grid.push_back(range.fLow +
                       range.width() * (0.02 + 0.96 * static_cast<double>(i) / 20.0));
    const auto [serial, par] =
        serialAndParallel([&] { return lockPhaseErrorSweep(model(), inj, grid); });
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].f1, par[i].f1);
        EXPECT_EQ(serial[i].detune, par[i].detune);
        ASSERT_EQ(serial[i].phases.size(), par[i].phases.size());
        for (std::size_t s = 0; s < serial[i].phases.size(); ++s) {
            EXPECT_EQ(serial[i].phases[s], par[i].phases[s]);
            EXPECT_EQ(serial[i].references[s], par[i].references[s]);
            EXPECT_EQ(serial[i].errors[s], par[i].errors[s]);
        }
    }
}

TEST(SweepDeterminism, SweepInjectionAmplitudeBitwiseEqual) {
    const std::vector<Injection> sync{Injection::tone(injNode(), 100e-6, 2)};
    const Injection unitD = Injection::tone(injNode(), 1.0, 1);
    const num::Vec amps{0.0, 10e-6, 60e-6, 120e-6};
    const auto [serial, par] = serialAndParallel(
        [&] { return sweepInjectionAmplitude(model(), testutil::kF1, sync, unitD, amps); });
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].equilibria.size(), par[i].equilibria.size());
        for (std::size_t e = 0; e < serial[i].equilibria.size(); ++e) {
            EXPECT_EQ(serial[i].equilibria[e].dphi, par[i].equilibria[e].dphi);
            EXPECT_EQ(serial[i].equilibria[e].gSlope, par[i].equilibria[e].gSlope);
            EXPECT_EQ(serial[i].equilibria[e].stable, par[i].equilibria[e].stable);
        }
    }
}

TEST(SweepDeterminism, CountIntersectionsBitwiseEqual) {
    const Injection unit = Injection::tone(injNode(), 1.0, 2);
    const num::Vec amps{5e-6, 80e-6, 500e-6};
    const double f1 = model().f0() * 1.004;
    const auto [serial, par] = serialAndParallel(
        [&] { return countIntersectionsVsAmplitude(model(), f1, {}, unit, amps); });
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].total, par[i].total);
        EXPECT_EQ(serial[i].stable, par[i].stable);
    }
}

TEST(MonteCarloDeterminism, TrialSeedsAreCounterBased) {
    // The engine seed of trial k must depend only on (base, k).
    EXPECT_EQ(deriveTrialSeed(1, 5), deriveTrialSeed(1, 5));
    EXPECT_NE(deriveTrialSeed(1, 5), deriveTrialSeed(1, 6));
    EXPECT_NE(deriveTrialSeed(1, 5), deriveTrialSeed(2, 5));
    // The single-path entry point uses the same mixing, so trial 0 of an
    // ensemble equals a direct call with the base seed.
    EXPECT_EQ(deriveTrialSeed(42, 0), mixSeed(42));

    // Trial k of an ensemble IS the sample path seeded base + 0x9e37...*k,
    // stepped by the scalar one-lane loop.  A one-trial range call runs the
    // engine's scalar tail and must decode like that path; a four-trial call
    // fills exactly one vector lane group on the AVX2 tier, and the full run
    // has 64- and 32-lane blocks.  Their counts must all sum from the paths,
    // which puts the vector kernels against the scalar loops in-process.
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    const double c = 2e-7;
    const double span = 60.0 / d.f1;
    const auto stable = gae.stableEquilibria();
    const auto nearest = [&](double phase) {
        double best = stable[0].dphi;
        for (const auto& e : stable)
            if (phaseDistance(e.dphi, phase) < phaseDistance(best, phase)) best = e.dphi;
        return best;
    };
    const double start = nearest(d.reference.phase1);
    StochasticGaeOptions opt;
    opt.seed = 12345;
    const std::size_t trials = 96;
    std::vector<std::size_t> pathLost(trials);
    for (std::size_t k = 0; k < trials; ++k) {
        StochasticGaeOptions one = opt;
        one.seed = opt.seed + 0x9e3779b97f4a7c15ull * k;
        const auto path = stochasticGaeTransient(gae, c, start, 0.0, span, one, 1u << 20);
        ASSERT_TRUE(path.ok);
        pathLost[k] = nearest(path.dphi.back()) != start ? 1 : 0;
    }
    std::size_t pathErrors = 0;
    for (std::size_t k = 0; k < trials; ++k) {
        const auto r = holdErrorProbabilityRange(gae, c, d.reference.phase1, span, k, 1, opt);
        EXPECT_EQ(r.trials, 1u);
        EXPECT_EQ(r.errors, pathLost[k]) << "trial " << k;
        pathErrors += pathLost[k];
    }
    for (std::size_t k = 0; k + 4 <= trials; ++k) {
        const auto r = holdErrorProbabilityRange(gae, c, d.reference.phase1, span, k, 4, opt);
        EXPECT_EQ(r.errors, pathLost[k] + pathLost[k + 1] + pathLost[k + 2] + pathLost[k + 3])
            << "trials " << k << ".." << k + 3;
    }
    EXPECT_GT(pathErrors, 0u);  // both outcomes must occur for the check to bite
    EXPECT_LT(pathErrors, trials);
    EXPECT_EQ(holdErrorProbability(gae, c, d.reference.phase1, span, trials, opt).errors,
              pathErrors);
}

TEST(MonteCarloDeterminism, HoldErrorCountsIdenticalAcrossThreadCounts) {
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    const double c = 2e-7;  // strong enough that errors actually occur
    const double span = 60.0 / d.f1;
    StochasticGaeOptions opt;
    opt.seed = 12345;
    const auto run = [&](const char* threads) {
        ScopedThreadsEnv env(threads);
        return holdErrorProbability(gae, c, d.reference.phase1, span, 96, opt);
    };
    const auto serial = run("1");
    const auto par4 = run("4");
    const auto par3 = run("3");
    EXPECT_EQ(serial.trials, 96u);
    EXPECT_EQ(par4.trials, serial.trials);
    EXPECT_EQ(par4.errors, serial.errors);
    EXPECT_EQ(par3.trials, serial.trials);
    EXPECT_EQ(par3.errors, serial.errors);
}

TEST(MonteCarloDeterminism, EnsembleEndpointsBitwiseEqual) {
    // Beyond aggregate counts: the per-trial sample paths themselves must be
    // bitwise identical however the trials are scheduled.  Reproduce the
    // ensemble's per-trial transients serially and compare endpoints.
    const auto& d = testutil::sharedDesign();
    const Gae gae(d.model, d.f1, {d.sync()});
    const double c = 1e-8;
    const double span = 20.0 / d.f1;
    const std::size_t trials = 32;
    auto endpoints = [&](unsigned threads) {
        std::vector<double> out(trials);
        num::parallelFor(
            trials,
            [&](std::size_t k) {
                StochasticGaeOptions o;
                o.seed = 7 + 0x9e3779b97f4a7c15ull * k;
                out[k] = stochasticGaeTransient(gae, c, 0.1, 0.0, span, o, 1u << 20).dphi.back();
            },
            threads);
        return out;
    };
    const auto serial = endpoints(1);
    const auto par = endpoints(4);
    for (std::size_t k = 0; k < trials; ++k) EXPECT_EQ(serial[k], par[k]);
}

}  // namespace
}  // namespace phlogon::core
