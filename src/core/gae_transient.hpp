#pragma once
// Transient solution of the GAE (paper Fig. 12): the scalar phase ODE
// d(dphi)/dt = -(f1-f0) + f0*g(dphi) integrated through a schedule of
// injection sets (logic inputs flip phase / switch on and off as piecewise
// events, and g changes with them).
//
// One engine serves every entry point below: num::BatchOde::rkf45 over L >= 1
// lanes, with each segment's Gae built once for all lanes.  gaeTransient is
// its one-lane call.  A lane whose segment fails (step budget or underflow)
// adds that segment's counters but none of its points, and stops.

#include <vector>

#include "core/gae.hpp"
#include "numeric/batch_ode.hpp"
#include "numeric/counters.hpp"
#include "numeric/ode.hpp"

namespace phlogon::core {

/// Injection set active from tStart until the next segment begins.
struct GaeSegment {
    double tStart = 0.0;
    std::vector<Injection> injections;
};

struct GaeTransientResult {
    bool ok = false;
    Vec t;
    Vec dphi;  ///< unwrapped phase difference in cycles
    /// RKF45 work over all schedule segments: rhsEvals counts g(dphi)
    /// evaluations, steps/rejectedSteps the accepted/rejected RK steps.
    num::SolverCounters counters;

    /// dphi at time tq (linear interpolation).
    double at(double tq) const;
    /// Final value.
    double final() const { return dphi.empty() ? 0.0 : dphi.back(); }
};

/// Integrate from (t0, dphi0) to t1: the engine's one-lane call.  `schedule`
/// must be sorted by tStart; the first segment should start at or before t0.
/// Segments that end at or before t0 are skipped.
///
/// Every segment starts a fresh RKF45 solve, so two calls split at a segment
/// boundary tB (the second starting from the first's final dphi at tB)
/// reproduce the uninterrupted run's points bitwise, and their counters sum
/// to its counters.  That is how a GAE run is resumed (the daemon's
/// fsm-transient job checkpoints at slot boundaries this way).
GaeTransientResult gaeTransient(const PpvModel& model, double f1,
                                const std::vector<GaeSegment>& schedule, double dphi0, double t0,
                                double t1, const num::OdeOptions& opt = {},
                                std::size_t gridSize = 1024);

/// Time at which the trajectory first settles within `tol` cycles of
/// `target` and stays there; returns t1-end if it never settles.
double settleTime(const GaeTransientResult& r, double target, double tol = 0.02);

struct GaeEnsembleResult {
    bool ok = false;  ///< every trial converged
    std::vector<GaeTransientResult> trials;
};

/// The same schedule integrated from many initial phases at once (the
/// Fig. 10/12 two-tone bit-flip experiments repeated across starting
/// conditions): one pass over the g table per RK stage for all lanes, and
/// one g-grid correlation per segment instead of per trial.  Lane l is
/// bitwise gaeTransient(model, f1, schedule, dphi0[l], ...) at any ensemble
/// size.
GaeEnsembleResult gaeTransientEnsemble(const PpvModel& model, double f1,
                                       const std::vector<GaeSegment>& schedule, const Vec& dphi0,
                                       double t0, double t1, const num::OdeOptions& opt = {},
                                       std::size_t gridSize = 1024);

}  // namespace phlogon::core
