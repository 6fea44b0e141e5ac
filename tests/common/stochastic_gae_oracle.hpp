#pragma once
// One sample path of the stochastic GAE: the per-trial reference that the
// Monte-Carlo tests compare core::holdErrorProbability against.  It takes
// the ensemble engine's step on one lane — a SplitMix64(mixSeed(opt.seed))
// stream, a ziggurat normal, the right-hand side Gae::rhsMany and
// phi += drift*h + sigma*sqrt(h)*z on the engine's Euler-Maruyama grid — so
// trial k of holdErrorProbability(..., opt) is exactly this path with seed
// opt.seed + 0x9e3779b97f4a7c15 * k.

#include <algorithm>
#include <cmath>

#include "core/noise.hpp"
#include "numeric/rng.hpp"

namespace phlogon::testutil {

struct StochasticGaeResult {
    bool ok = false;
    num::Vec t;
    num::Vec dphi;
};

/// Integrate dphi over [t0, t1] with diffusion constant `cSeconds` (as
/// returned by core::phaseDiffusion), keeping every storeEvery-th step and
/// the last one (0 counts as 1).
inline StochasticGaeResult stochasticGaeTransient(const core::Gae& gae, double cSeconds,
                                                  double dphi0, double t0, double t1,
                                                  const core::StochasticGaeOptions& opt = {},
                                                  std::size_t storeEvery = 8) {
    StochasticGaeResult res;
    if (!(t1 > t0)) return res;
    // The engine's grid (core/noise.cpp, emGrid).
    const double span = t1 - t0;
    const double f0 = gae.f0();
    const double dt = opt.dt > 0 ? opt.dt : 1.0 / (20.0 * f0);
    const double sigma = f0 * std::sqrt(std::max(cSeconds, 0.0));
    const std::size_t nSteps =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(span / dt)));
    const double h = span / static_cast<double>(nSteps);
    const double sigmaSqrtH = sigma * std::sqrt(h);

    num::SplitMix64 rng(core::mixSeed(opt.seed));
    const auto& zig = num::ZigguratNormal::instance();
    storeEvery = std::max<std::size_t>(storeEvery, 1);
    double phi = dphi0;
    double drift = 0.0;
    res.t.push_back(t0);
    res.dphi.push_back(phi);
    for (std::size_t k = 0; k < nSteps; ++k) {
        gae.rhsMany(&phi, &drift, 1);
        phi += drift * h + sigmaSqrtH * zig(rng);
        if ((k + 1) % storeEvery == 0 || k + 1 == nSteps) {
            res.t.push_back(t0 + h * static_cast<double>(k + 1));
            res.dphi.push_back(phi);
        }
    }
    res.ok = true;
    return res;
}

}  // namespace phlogon::testutil
