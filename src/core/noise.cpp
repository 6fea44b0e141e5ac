#include "core/noise.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/gae_sweep.hpp"
#include "numeric/interp.hpp"
#include "numeric/parallel.hpp"
#include "numeric/rng.hpp"
#include "numeric/simd/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::core {

namespace {

constexpr std::uint64_t kSeedIncrement = 0x9e3779b97f4a7c15ull;  // 2^64 / golden ratio

/// Trials one thread-pool slot advances in lockstep.  Counts do not depend
/// on it (trial k's arithmetic depends only on its seed), so it is a speed
/// choice alone; 64 measured best on the 1024-trial hold-error workload.
constexpr std::size_t kLanesPerBlock = 64;

/// Euler-Maruyama grid of an ensemble (tests/common/stochastic_gae_oracle.hpp
/// repeats it, so that its one-lane sample path steps exactly like trial k).
struct EmGrid {
    std::size_t nSteps;
    double h;
    double sigmaSqrtH;
};

EmGrid emGrid(const Gae& gae, double cSeconds, double span, double dt) {
    const double f0 = gae.f0();
    if (!(dt > 0)) dt = 1.0 / (20.0 * f0);
    // Noise term in cycles: alpha diffuses with c [s]; dphi = f0 * alpha.
    const double sigma = f0 * std::sqrt(std::max(cSeconds, 0.0));
    const std::size_t nSteps =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(span / dt)));
    const double h = span / static_cast<double>(nSteps);
    return {nSteps, h, sigma * std::sqrt(h)};
}

}  // namespace

std::uint64_t mixSeed(std::uint64_t seed) {
    // SplitMix64 (Steele, Lea & Flood 2014) finalizer.
    std::uint64_t z = seed + kSeedIncrement;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t deriveTrialSeed(std::uint64_t base, std::uint64_t trial) {
    return mixSeed(base + kSeedIncrement * trial);
}

double phaseDiffusion(const PpvModel& model, const std::vector<NoiseSource>& sources) {
    if (!model.valid()) throw std::invalid_argument("phaseDiffusion: invalid model");
    const std::size_t n = model.sampleCount();
    double acc = 0.0;
    for (const NoiseSource& s : sources) {
        if (s.unknownIndex >= model.size())
            throw std::invalid_argument("phaseDiffusion: source index out of range");
        const Vec& v = model.ppvSamples(s.unknownIndex);
        double sum = 0.0;
        for (double vi : v) sum += vi * vi;
        // One-sided PSD convention: var growth rate = S * <v^2>.
        acc += s.psd * sum / static_cast<double>(n);
    }
    return acc;
}

double resistorCurrentPsd(double ohms, double temperatureK) {
    constexpr double kB = 1.380649e-23;
    if (!(ohms > 0)) throw std::invalid_argument("resistorCurrentPsd: non-positive R");
    return 4.0 * kB * temperatureK / ohms;
}

HoldErrorResult holdErrorProbability(const Gae& gae, double cSeconds, double dphi0,
                                     double holdTime, std::size_t trials,
                                     const StochasticGaeOptions& opt) {
    return holdErrorProbabilityRange(gae, cSeconds, dphi0, holdTime, 0, trials, opt);
}

HoldErrorResult holdErrorProbabilityRange(const Gae& gae, double cSeconds, double dphi0,
                                          double holdTime, std::size_t firstTrial,
                                          std::size_t trials,
                                          const StochasticGaeOptions& opt) {
    HoldErrorResult out;
    const auto stable = gae.stableEquilibria();
    if (stable.empty()) throw std::invalid_argument("holdErrorProbability: no stable lock");
    // Start at the stable phase nearest dphi0.
    double start = stable[0].dphi;
    for (const auto& e : stable)
        if (phaseDistance(e.dphi, dphi0) < phaseDistance(start, dphi0)) start = e.dphi;
    if (!(holdTime > 0.0)) return out;

    // Lost bit: the nearest stable phase to the (wrapped) end point is not
    // the start.
    const auto lost = [&](double end) -> unsigned char {
        double best = 1e9;
        double bestPhase = start;
        for (const auto& e : stable) {
            const double dist = phaseDistance(e.dphi, end);
            if (dist < best) {
                best = dist;
                bestPhase = e.dphi;
            }
        }
        return phaseDistance(bestPhase, start) > 1e-9 ? 1 : 0;
    };

    // kLanesPerBlock trials per thread-pool slot advance in lockstep over SoA
    // lanes; each Euler-Maruyama step is one rhsMany pass over the g table
    // for the block, one ziggurat draw per lane and the update, all
    // on the process-wide SIMD tier.  Lane l's state and RNG stream depend
    // only on its trial index, so the outcomes are bitwise invariant under
    // thread count, block size, chunking and tier; and since lane streams
    // are independent, drawing every lane's normal before the update is the
    // same arithmetic as a one-lane step.
    OBS_SPAN("noise.holdError.batch");
    const EmGrid g = emGrid(gae, cSeconds, holdTime, opt.dt);
    const auto& zig = num::ZigguratNormal::instance();
    const num::simd::Kernels& kr = num::simd::kernels(num::simd::resolveTier());
    if (kr.tier != num::simd::Tier::Scalar) PHLOGON_COUNT_METRIC("batch.mc.simd");
    // One outcome slot per trial; the serial reduction below then sees the
    // same values in the same order at any thread count.
    std::vector<unsigned char> outcome(trials, 0);
    const std::size_t nBlocks = (trials + kLanesPerBlock - 1) / kLanesPerBlock;
    num::parallelFor(nBlocks, [&](std::size_t blk) {
        const std::size_t lo = blk * kLanesPerBlock;
        const std::size_t n = std::min(trials, lo + kLanesPerBlock) - lo;
        std::vector<double> phi(n, start), drift(n), z(n);
        std::vector<num::SplitMix64> rngs;
        rngs.reserve(n);
        for (std::size_t l = 0; l < n; ++l)
            rngs.emplace_back(deriveTrialSeed(opt.seed, firstTrial + lo + l));
        for (std::size_t k = 0; k < g.nSteps; ++k) {
            gae.rhsMany(phi.data(), drift.data(), n);
            kr.normalFill(zig, rngs.data(), z.data(), n);
            kr.mcUpdate(phi.data(), drift.data(), g.h, g.sigmaSqrtH, z.data(), n);
        }
        for (std::size_t l = 0; l < n; ++l) outcome[lo + l] = lost(phi[l]);
        PHLOGON_ADD_METRIC("batch.mc.trials", n);
        PHLOGON_ADD_METRIC("batch.mc.steps", n * g.nSteps);
    });
    PHLOGON_ADD_METRIC("batch.mc.blocks", nBlocks);
    out.trials = trials;
    for (unsigned char oc : outcome) out.errors += oc;
    return out;
}

}  // namespace phlogon::core
