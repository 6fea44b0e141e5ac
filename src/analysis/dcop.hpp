#pragma once
// DC operating point: solve f(x, t=0) = 0 with gmin homotopy: a
// conductance gmin from every unknown to ground is stepped down decade by
// decade from 1e-2 to 1e-12, warm-starting Newton, before a gmin = 0 pass.
//
// For oscillators the DC solution is the (unstable) equilibrium — the
// starting point that transient warmup "kicks" off the metastable point
// before periodic steady state is sought.

#include "circuit/dae.hpp"
#include "numeric/counters.hpp"
#include "numeric/newton.hpp"

namespace phlogon::an {

using ckt::Dae;
using num::Matrix;
using num::Vec;

struct DcopOptions {
    num::NewtonOptions newton{.maxIter = 200, .absTol = 1e-9, .maxStep = 0.5};
    /// Initial guess; empty = all zeros.
    Vec initialGuess;
    /// Evaluation time for time-dependent sources (normally 0).
    double evalTime = 0.0;
};

struct DcopResult {
    bool ok = false;
    Vec x;
    std::string message;
    /// Work performed across all homotopy stages (and the pseudo-transient
    /// fallback, whose Levenberg iterations count as Newton iterations).
    num::SolverCounters counters;
};

DcopResult dcOperatingPoint(const Dae& dae, const DcopOptions& opt = {});

}  // namespace phlogon::an
