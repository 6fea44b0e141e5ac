#pragma once
// Explicit ODE integrators for the phase-domain macromodels.  The GAE
// (paper eq. 4) is a smooth scalar ODE; the non-averaged phase system
// (eqs. 13/14 reduced to phase unknowns) is a small smooth vector ODE.  Both
// are non-stiff, so explicit RK with step control is the right tool — the
// implicit machinery lives in analysis/transient for the circuit DAEs.
//
// The GAE transients run BatchOde::rkf45 and PhaseSystem::simulate runs
// BatchOde::rk4Lockstep (numeric/batch_ode.hpp); this header holds their
// options and results.  The plain rkf45, rkf45Scalar and rk4 that the
// BatchOde tests compare against live in tests/common/ode_oracle.hpp.

#include "numeric/matrix.hpp"

namespace phlogon::num {

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

}  // namespace phlogon::num
