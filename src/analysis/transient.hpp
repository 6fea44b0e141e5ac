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

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>

#include "circuit/dae.hpp"
#include "numeric/counters.hpp"
#include "numeric/newton.hpp"

namespace phlogon::an {

using ckt::Dae;
using num::Matrix;
using num::Vec;

/// Periodic solver-state snapshots (io/checkpoint.hpp artifact): every
/// `interval` of simulated time, after an accepted step, the current
/// (t, x, stepIndex, counters) is written atomically to `path`.
/// io::resumeTransient() restarts from the snapshot and reproduces the
/// uninterrupted run's remaining trajectory bit-for-bit.
struct CheckpointOptions {
    double interval = 0.0;        ///< simulated seconds between snapshots; <= 0 disables
    std::filesystem::path path;   ///< snapshot file, rewritten in place (atomic)
    bool enabled() const { return interval > 0.0 && !path.empty(); }
};

struct TransientOptions {
    double dt = 0.0;  ///< time step; required (> 0)
    num::NewtonOptions newton{.maxIter = 50, .absTol = 1e-9, .maxStep = 1.0};
    /// Store every `storeEvery`-th point (1 = all); the initial point and the
    /// final point are always stored.
    std::size_t storeEvery = 1;
    /// On a Newton failure the step is retried with dt/2 up to this many
    /// times (then the run aborts).
    int maxStepHalvings = 8;

    /// Optional periodic checkpointing (disabled by default).
    CheckpointOptions checkpoint;
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

/// Integrate the DAE from consistent initial state x0 over [t0, t1].
TransientResult transient(const Dae& dae, const Vec& x0, double t0, double t1,
                          const TransientOptions& opt);

/// Mid-run integration state, as captured in a checkpoint.  `t0` is the
/// original span start, which later snapshots record again; `stepIndex`
/// preserves the storeEvery phase.
struct TransientResumeState {
    double t0 = 0.0;
    double t = 0.0;
    Vec x;
    std::uint64_t stepIndex = 0;
    num::SolverCounters counters;
};

/// Continue an integration from `st` to t1.  With `st` taken from a
/// checkpoint written after an accepted step, the produced points and final
/// state are bit-identical to the tail of the uninterrupted run (the result
/// starts at the checkpoint point).  transient() is this with a fresh state;
/// io::resumeTransient() binds it to checkpoint files.
TransientResult transientResumed(const Dae& dae, const TransientResumeState& st, double t1,
                                 const TransientOptions& opt);

}  // namespace phlogon::an
