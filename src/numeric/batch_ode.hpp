#pragma once
// Batched structure-of-arrays integrator for ensembles of independent scalar
// phase ODEs (GAE trials, Monte-Carlo corners, multi-start bit-flip
// experiments).  B lanes advance in lockstep rounds over contiguous arrays:
// each round attempts one RKF45 step on every unfinished lane, evaluating
// the right-hand side for the whole batch at once — one cache-friendly pass
// over the g(Δφ) table per stage instead of B separate interpolation calls.
//
// Determinism / equivalence contract:
//   * per-lane step control (error norm, accept/reject, step growth) runs the
//     exact arithmetic of num::rkf45 on a 1-dimensional state, lane by lane;
//   * lanes never interact: lane l's trajectory depends only on (y0[l], rhs);
//   * therefore, when the batched RHS evaluates each lane with the same
//     arithmetic as the scalar RHS (Gae::rhsMany against Gae::rhs), the
//     per-lane trajectories are bitwise identical to rkf45Scalar, at ANY
//     batch size and any partition of an ensemble into batches;
//   * the stage combinations and the error norm run on the process-wide
//     SIMD tier (numeric/simd/simd.hpp), whose kernels are bitwise equal to
//     the scalar loops, so the above holds on every tier.
//
// A solve keeps no state between calls, and every GAE schedule segment is a
// fresh solve; that is why a GAE run split at a segment boundary reproduces
// the uninterrupted run bitwise (core/gae_transient.hpp).

#include <vector>

#include "numeric/ode.hpp"

namespace phlogon::num {

/// Batched scalar RHS: dydt[l] = f(t[l], y[l]) for every lane l in [0, lanes)
/// with active[l] != 0.  Inactive lanes may be skipped or written freely.
using BatchRhs1 = std::function<void(const double* t, const double* y, double* dydt,
                                     const unsigned char* active, std::size_t lanes)>;

/// Coupled batched RHS for *lockstep* fixed-step integration: every lane
/// shares one time t, and dydt[l] may depend on every lane of y (the fabric
/// engine's latches are coupled through the gate network).  Must write
/// dydt[0..lanes).
using BatchRhsCoupled =
    std::function<void(double t, const double* y, double* dydt, std::size_t lanes)>;

struct BatchOdeSolution {
    std::vector<OdeSolution1> lanes;  ///< index-aligned with y0
    bool ok = false;                  ///< every lane converged
};

/// Reusable SoA workspace + driver.  One instance per thread/block; resizing
/// between solves is allowed (buffers grow monotonically).
class BatchOde {
public:
    BatchOde() = default;
    explicit BatchOde(std::size_t lanes) { reserve(lanes); }

    void reserve(std::size_t lanes);

    /// Integrate lanes y0[l] over [t0, t1] with per-lane adaptive RKF45
    /// control (see the equivalence contract above).  This is the RKF45
    /// loop every GAE transient runs (core/gae_transient.hpp).
    BatchOdeSolution rkf45(const BatchRhs1& f, const Vec& y0, double t0, double t1,
                           const OdeOptions& opt = {});

    /// Fixed-step classic RK4 over a *coupled* lane batch: all lanes advance
    /// in lockstep on the uniform n-step grid, with one coupled RHS call per
    /// stage (4 per step) across the whole batch.  The per-lane update
    /// arithmetic is an exact mirror of num::rk4 on a `lanes`-dimensional
    /// state, so for the same RHS values the returned trajectory is bitwise
    /// identical to num::rk4 on every SIMD tier
    /// (SimdBatchOde.Rk4LockstepSimdOnEqualsOff).  PhaseSystem::simulate
    /// runs on it.  Stored points are the initial point, every storeEvery-th
    /// step, and the final step.
    OdeSolution rk4Lockstep(const BatchRhsCoupled& f, const Vec& y0, double t0, double t1,
                            std::size_t nSteps, std::size_t storeEvery = 1);

private:
    // SoA per-lane state for the current solve.
    Vec t_, y_, h_;
    Vec k1_, k2_, k3_, k4_, k5_, k6_, yt_, y5_, ts_, err_;
    std::vector<unsigned char> active_;
    std::vector<std::size_t> attempts_;
};

}  // namespace phlogon::num
