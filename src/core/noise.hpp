#pragma once
// Phase noise and noise-immunity analysis.
//
// The PPV formalism used throughout this tool chain originates in phase
// noise theory (Demir et al. 2000): white noise currents b(t) injected into
// the oscillator diffuse its phase,
//
//     d(alpha)/dt = v^T(t + alpha) b(t)
//     var(alpha(t)) -> c * t,     c = (1/T0) \int_0^{T0} sum_j v_j^2(t) S_j dt,
//
// with S_j the (one-sided) current PSD at unknown j.  The same machinery
// quantifies the paper's headline claim — phase-encoded logic has superior
// noise immunity — by Monte-Carlo simulation of the *stochastic* GAE:
//
//     d(dphi) = [-(f1 - f0) + f0 g(dphi)] dt + f0 sqrt(c) dW.
//
// A stored bit is lost when noise drives dphi across the GAE's unstable
// equilibrium (Kramers escape over the SHIL barrier); the escape rate drops
// exponentially with SYNC amplitude, making the latch's noise immunity a
// design knob these tools can sweep.

#include <cstdint>
#include <vector>

#include "core/gae.hpp"
#include "core/ppv_model.hpp"

namespace phlogon::core {

/// White current-noise source attached to one unknown's KCL.
struct NoiseSource {
    std::size_t unknownIndex = 0;
    double psd = 0.0;  ///< current PSD S_j [A^2/Hz]
};

/// Phase diffusion constant c [s^2/s = s]: var(alpha(t)) = c * t with alpha
/// in seconds.  Multiply by f0^2 for cycles^2 per second.
double phaseDiffusion(const PpvModel& model, const std::vector<NoiseSource>& sources);

/// Thermal-noise helper: PSD of a resistor's current noise, 4kT/R.
double resistorCurrentPsd(double ohms, double temperatureK = 300.0);

/// SplitMix64 finalizer.  Every stochastic path seeds its own SplitMix64
/// stream from mixSeed(seed), never from the raw seed, so that nearby user
/// seeds (1, 2, 3, ... or base + k*increment) yield decorrelated streams.
std::uint64_t mixSeed(std::uint64_t seed);

/// Engine seed of ensemble trial `trial` under base seed `base`:
/// mixSeed(base + 0x9e3779b97f4a7c15 * trial).  Counter-based — it
/// depends only on (base, trial), never on execution order or a shared
/// engine — which is what makes parallel Monte-Carlo trials bitwise
/// reproducible at any thread count.
std::uint64_t deriveTrialSeed(std::uint64_t base, std::uint64_t trial);

struct StochasticGaeOptions {
    double dt = 0.0;        ///< Euler-Maruyama step; 0 = (20 f0)^-1
    std::uint64_t seed = 1;
};

struct HoldErrorResult {
    std::size_t trials = 0;
    std::size_t errors = 0;  ///< paths that ended in the wrong basin
    double errorRate() const {
        return trials ? static_cast<double>(errors) / static_cast<double>(trials) : 0.0;
    }
};

/// Monte-Carlo bit-retention experiment: start `trials` paths at the stable
/// phase nearest `dphi0`, integrate for `holdTime` under noise, and count
/// paths that decode to a different stable phase at the end.  Trial k runs
/// with engine seed deriveTrialSeed(opt.seed, k): a SplitMix64 stream, a
/// ziggurat normal (numeric/rng.hpp), the right-hand side Gae::rhsMany and
/// the Euler-Maruyama step phi += drift*h + sigma*sqrt(h)*z, with diffusion
/// constant `cSeconds` as returned by phaseDiffusion (the tests compare each
/// trial with the one-lane path of tests/common/stochastic_gae_oracle.hpp).
/// Trials advance in blocks of SoA lanes, one block per slot of the
/// process-wide pool (PHLOGON_THREADS), with the per-step kernels on the
/// process-wide SIMD tier (numeric/simd/simd.hpp; PHLOGON_SIMD=0 forces the
/// scalar loops).
/// Every trial's arithmetic depends only on (seed, k), so the counts are
/// bitwise identical at any thread count and on every tier (DESIGN.md §13,
/// §18).  A non-positive holdTime runs no trials.
HoldErrorResult holdErrorProbability(const Gae& gae, double cSeconds, double dphi0,
                                     double holdTime, std::size_t trials,
                                     const StochasticGaeOptions& opt = {});

/// Contiguous sub-range [firstTrial, firstTrial + trials) of the same
/// experiment: trial firstTrial + k runs with engine seed
/// deriveTrialSeed(opt.seed, firstTrial + k) — exactly the seed it gets in
/// a full run — so splitting an N-trial ensemble into chunks and summing
/// the per-chunk counts reproduces holdErrorProbability(..., N, opt)
/// bitwise, regardless of chunk boundaries or thread count.  This is what
/// makes the service's checkpointed hold-error jobs resumable with
/// bit-identical results (DESIGN.md §16).
HoldErrorResult holdErrorProbabilityRange(const Gae& gae, double cSeconds, double dphi0,
                                          double holdTime, std::size_t firstTrial,
                                          std::size_t trials,
                                          const StochasticGaeOptions& opt = {});

}  // namespace phlogon::core
