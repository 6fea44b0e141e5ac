#pragma once
// Periodic steady state (PSS) of autonomous oscillators by shooting.
//
// The oscillator's limit cycle xs(t) and exact period T0 are found by Newton
// on the boundary-value problem
//
//     x(T; x0) - x0 = 0,    x0[p] - mean_p(x0, T) = 0       (phase condition)
//
// with the monodromy/sensitivity matrix propagated through the trapezoidal
// time discretization, plus a period-sensitivity column (the step size is
// h = T/m, so T enters every step).  mean_p is the trapezoid mean of unknown
// p over the m shooting steps, and the phase row carries its exact
// derivative (the trapezoid-weighted sum of row p of the sensitivity chain).
//
// Gauge: t = 0 is where unknown p rises through its own mean on the
// converged orbit, so the time origin, and every phase measured from it,
// is a property of the orbit alone.  A transient warm-up only seeds Newton
// (150-step TRAP cycles of `freqHint` until the record settles, pss.cpp);
// any warm-up long enough to settle gives the same PSS to shooting
// tolerance.  logic::RingOscCharacterization pins p to the stage output n1;
// other callers get the node with the largest swing over the first warm-up
// cycle.  Shooting converges at ||x(T)-x0||_inf < 1e-7 (state units) within
// 40 iterations, and xs holds 256 uniform samples of the orbit.
//
// Each shooting step starts its Newton solve from the quadratic
// extrapolation 3 x_k - 3 x_{k-1} + x_{k-2} of the period's previous points
// (linear at k = 1, the period start at k = 0), so a step on the smooth
// orbit takes one Jacobian and a residual check.
//
// The circuit must be autonomous (DC sources only); time-varying sources
// would make the "period" ill-defined.

#include <string>

#include "analysis/transient.hpp"
#include "circuit/dae.hpp"

namespace phlogon::an {

struct PssOptions {
    /// Rough frequency guess: the warm-up's step size and cycle length.
    double freqHint = 10e3;
    /// TRAP steps per period inside shooting (also the fine output grid).
    std::size_t shootingSteps = 400;
    /// Perturbation applied after the DC solve to kick the oscillator off
    /// its unstable equilibrium.
    double kick = 0.3;
    /// Unknown whose rising mean-crossing is t = 0; -1 = auto (largest swing).
    int phaseUnknown = -1;
    num::NewtonOptions stepNewton{.maxIter = 50, .absTol = 1e-9, .maxStep = 1.0};
};

struct PssResult {
    bool ok = false;
    std::string message;
    double period = 0.0;
    double f0 = 0.0;
    int phaseUnknown = -1;
    double shootResidual = 0.0;
    int shootIterations = 0;

    /// Uniform samples over one period: xs[k] is the full state at
    /// t = k * period / xs.size() (256 samples).
    std::vector<num::Vec> xs;
    /// Fine shooting grid (shootingSteps + 1 states including the endpoint).
    std::vector<num::Vec> xFine;
    num::Vec tFine;

    /// Time series of unknown `idx` on the uniform grid.
    num::Vec column(std::size_t idx) const;

    /// Work performed across the whole run (DC op + warmup transients +
    /// every shooting integration), including wall time.
    num::SolverCounters counters;
};

PssResult shootingPss(const Dae& dae, const PssOptions& opt = {});

}  // namespace phlogon::an
