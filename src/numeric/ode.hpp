#pragma once
// Explicit ODE integrators for the phase-domain macromodels.  The GAE
// (paper eq. 4) is a smooth scalar ODE; the non-averaged phase system
// (eqs. 13/14 reduced to phase unknowns) is a small smooth vector ODE.  Both
// are non-stiff, so explicit RK with step control is the right tool — the
// implicit machinery lives in analysis/transient for the circuit DAEs.
//
// num::rkf45, rkf45Scalar and rk4 are the plain references that the
// num::BatchOde tests compare against; no src/ engine runs them.  The GAE
// transients run BatchOde::rkf45 and PhaseSystem::simulate runs
// BatchOde::rk4Lockstep (numeric/batch_ode.hpp).

#include <functional>

#include "numeric/matrix.hpp"

namespace phlogon::num {

/// dy/dt = f(t, y).
using OdeRhs = std::function<Vec(double, const Vec&)>;
/// Scalar version.
using OdeRhs1 = std::function<double(double, double)>;

struct OdeOptions {
    double relTol = 1e-7;
    double absTol = 1e-10;
    double initialStep = 0.0;  ///< 0 = auto
    double maxStep = 0.0;      ///< 0 = unlimited
    std::size_t maxSteps = 2'000'000;
};

struct OdeSolution {
    Vec t;                    ///< accepted time points
    std::vector<Vec> y;       ///< states at those points
    bool ok = false;
    std::size_t rejectedSteps = 0;
};

struct OdeSolution1 {
    Vec t;
    Vec y;
    bool ok = false;
    std::size_t rejectedSteps = 0;
};

/// Adaptive Runge-Kutta-Fehlberg 4(5) over [t0, t1].
OdeSolution rkf45(const OdeRhs& f, const Vec& y0, double t0, double t1,
                  const OdeOptions& opt = {});

/// Scalar convenience wrapper around rkf45.
OdeSolution1 rkf45Scalar(const OdeRhs1& f, double y0, double t0, double t1,
                         const OdeOptions& opt = {});

/// Fixed-step classic RK4 with `n` steps (used where uniform output grids are
/// required, e.g. co-simulation against a fixed circuit time base).
OdeSolution rk4(const OdeRhs& f, const Vec& y0, double t0, double t1, std::size_t n);

}  // namespace phlogon::num
