#pragma once
// Frequency-domain periodic steady state by Fourier (trigonometric)
// collocation — the harmonic-balance-class companion to the time-domain
// shooting method, in the spirit of the paper's PPV-HB reference.
//
// Unknowns: the state at N uniform collocation points over one period plus
// the period T; equations: the DAE residual with the time derivative taken
// by the spectral differentiation matrix,
//
//     (1/T) sum_j Dhat_kj q(x_j) + f(x_k) = 0,   k = 0..N-1,
//
// plus one phase condition, x_0[p] - (1/N) sum_k x_k[p] = 0: t = 0 is where
// unknown p rises through its own collocation mean, the gauge shootingPss
// uses (pss.hpp), so the two engines' waveforms line up sample by sample
// when they pin the same unknown; a ring-oscillator characterization pins
// its output n1, so pass phaseUnknown = outputUnknown() to compare with it.
// Solved by damped Newton with the dense (nN+1)^2 Jacobian; the warm start
// shared with shooting (an::warmStart) supplies the initial cycle and, for
// phaseUnknown = -1, the unknown.
//
// Compared to shooting: no time-stepping error (spectral accuracy for
// smooth waveforms), but a Gibbs penalty on strongly switching waveforms —
// which is why both methods exist and are cross-checked in the tests.

#include "analysis/pss.hpp"

namespace phlogon::an {

struct HbOptions {
    /// Collocation points (even).  64 resolves the weakly nonlinear
    /// oscillators; switching waveforms (ring oscillators) want 128+.
    std::size_t nColloc = 128;
    int maxIter = 60;
    double tol = 1e-8;      ///< on the collocation residual (current units)
    double freqHint = 10e3;
    std::size_t warmupCycles = 15;  ///< seeds Newton only (see PssOptions)
    std::size_t stepsPerCycleWarmup = 150;
    double kick = 0.3;
    int phaseUnknown = -1;  ///< -1 = auto
    std::size_t nSamples = 256;  ///< uniform output grid (trig-interpolated)
};

/// Returns the same PssResult as shootingPss (xFine carries the collocation
/// samples upsampled to a uniform fine grid so PPV extraction works
/// unchanged).  `counters` hold the warm start's work plus the collocation
/// Newton's: one residual and one Jacobian evaluation per collocation point
/// per pass, one LU factorization per Newton iteration, and the wall time.
PssResult harmonicBalancePss(const ckt::Dae& dae, const HbOptions& opt = {});

}  // namespace phlogon::an
