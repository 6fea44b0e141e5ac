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

#include <filesystem>
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

/// Periodic snapshots of the GAE integration (io/checkpoint.hpp artifact):
/// every `interval` of simulated time, after an accepted RK step, the
/// current (t, dphi, next step size, counters) is written atomically to
/// `path`.  io::resumeGaeTransient() restarts from the snapshot and
/// reproduces the uninterrupted trajectory and counters bit-for-bit.
struct GaeCheckpointOptions {
    double interval = 0.0;       ///< simulated seconds between snapshots; <= 0 disables
    std::filesystem::path path;  ///< snapshot file, rewritten in place (atomic)
    bool enabled() const { return interval > 0.0 && !path.empty(); }
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
/// opt.onAccept fires after every accepted step.
GaeTransientResult gaeTransient(const PpvModel& model, double f1,
                                const std::vector<GaeSegment>& schedule, double dphi0, double t0,
                                double t1, const num::OdeOptions& opt = {},
                                std::size_t gridSize = 1024,
                                const GaeCheckpointOptions& checkpoint = {});

/// Resume entry point behind io::resumeGaeTransient: the one-lane call from
/// (tStart, phi0), skipping schedule segments that end at or before tStart.
/// `firstSegInitialStep` (> 0) overrides the RK initial step inside the
/// segment containing tStart — passing a checkpoint's saved step there makes
/// the resumed tail bit-identical; later segments use `opt` untouched.
GaeTransientResult gaeTransientFrom(const PpvModel& model, double f1,
                                    const std::vector<GaeSegment>& schedule, double phi0,
                                    double tStart, double t1, const num::OdeOptions& opt,
                                    std::size_t gridSize, const GaeCheckpointOptions& checkpoint,
                                    double firstSegInitialStep);

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
/// size.  A multi-lane call that sets opt.onAccept throws
/// std::invalid_argument; checkpoint/resume is per trial, on gaeTransient.
GaeEnsembleResult gaeTransientEnsemble(const PpvModel& model, double f1,
                                       const std::vector<GaeSegment>& schedule, const Vec& dphi0,
                                       double t0, double t1, const num::OdeOptions& opt = {},
                                       std::size_t gridSize = 1024);

}  // namespace phlogon::core
