#pragma once
// SPICE-style implicit transient analysis of the circuit DAE.
//
// Fixed-step trapezoidal integration (no artificial damping of
// oscillations, which matters when simulating oscillator phase over
// thousands of cycles), with algebraic rows collocated at the new point
// (trap_util.hpp).  A step whose Newton solve fails is retried at half the
// size; otherwise every step is dt, and the last one is shortened to land
// on t1.
//
// The inner loop runs on the zero-allocation ImplicitStepper: all Newton
// temporaries live in a workspace reused across steps.

#include <string>
#include <vector>

#include "circuit/dae.hpp"
#include "numeric/counters.hpp"
#include "numeric/newton.hpp"

namespace phlogon::an {

using ckt::Dae;
using num::Matrix;
using num::Vec;

struct TransientOptions {
    double dt = 0.0;  ///< time step; required (> 0)
    num::NewtonOptions newton{.maxIter = 50, .absTol = 1e-9, .maxStep = 1.0};
    /// Store every `storeEvery`-th point (1 = all, and so does 0); the
    /// initial point and the final point are always stored.
    std::size_t storeEvery = 1;
    /// On a Newton failure the step is retried with dt/2 up to this many
    /// times (then the run aborts).
    int maxStepHalvings = 8;
};

struct TransientResult {
    bool ok = false;
    std::string message;
    Vec t;
    std::vector<Vec> x;
    /// Work performed: steps/rejections, Newton iterations, residual and
    /// Jacobian evaluations, LU factorizations, wall time.
    num::SolverCounters counters;

    /// Time series of one unknown.
    Vec column(std::size_t idx) const;
};

/// Integrate the DAE from consistent initial state x0 over [t0, t1].  An x0
/// whose size is not dae.size() returns ok = false with a message.
///
/// The stepper re-derives its old-point charges and currents from (t, x),
/// so restarting from a stored point (t[k], x[k]) of a run, with the same
/// options and t1, reproduces that run's remaining points bitwise: stored
/// points sit on multiples of storeEvery steps, so the restart stores the
/// same ones.  That is how a long transient is resumed.
TransientResult transient(const Dae& dae, const Vec& x0, double t0, double t1,
                          const TransientOptions& opt);

}  // namespace phlogon::an
