#include "analysis/dcop.hpp"

#include <chrono>
#include <cmath>

#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::an {

namespace {

/// First and last gmin of the homotopy (decade steps).
constexpr double kGminStart = 1e-2;
constexpr double kGminEnd = 1e-12;

/// Levenberg-style pseudo-transient continuation: solve (G + lam*I) dx = -f
/// with lambda adapted to the residual.  Far more robust than plain Newton
/// on sharply saturating circuits (op-amp gates pinned at a rail knee),
/// where the open-loop gmin schedule can lose the solution path.
/// Buffers (Jacobian, LU, trial state) are reused across iterations.
bool pseudoTransient(const Dae& dae, double t, Vec& x, double absTol, int maxIter,
                     num::SolverCounters& counters) {
    Vec qScratch, fScratch;
    Vec f;
    dae.eval(t, x, qScratch, f, nullptr, nullptr);
    ++counters.rhsEvals;
    double fn = num::normInf(f);
    double lam = 1e-2;
    Matrix j;
    num::LuFactor lu;
    Vec dx, trial, fTrial;
    for (int it = 0; it < maxIter; ++it) {
        if (fn <= absTol) return true;
        ++counters.newtonIters;
        dae.eval(t, x, qScratch, fScratch, nullptr, &j);
        ++counters.jacEvals;
        for (std::size_t i = 0; i < j.rows(); ++i) j(i, i) += lam;
        if (!lu.refactor(j)) {
            lam *= 10.0;
            if (lam > 1e12) return false;
            continue;
        }
        ++counters.luFactorizations;
        lu.solveInto(f, dx);
        trial = x;
        for (std::size_t i = 0; i < x.size(); ++i) trial[i] -= dx[i];
        dae.eval(t, trial, qScratch, fTrial, nullptr, nullptr);
        ++counters.rhsEvals;
        const double fnTrial = num::normInf(fTrial);
        if (std::isfinite(fnTrial) && fnTrial < fn) {
            std::swap(x, trial);
            std::swap(f, fTrial);
            fn = fnTrial;
            lam = std::max(lam * 0.25, 1e-12);
        } else {
            lam *= 10.0;
            if (lam > 1e14) return false;
        }
    }
    return fn <= absTol;
}

}  // namespace

DcopResult dcOperatingPoint(const Dae& dae, const DcopOptions& opt) {
    OBS_SPAN("dcop.solve");
    const auto wallStart = std::chrono::steady_clock::now();
    DcopResult res;
    const auto finish = [&res, wallStart] {
        res.counters.wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
        obs::recordSolverCounters("dcop", res.counters);
    };
    const std::size_t n = dae.size();
    Vec x = opt.initialGuess.empty() ? Vec(n, 0.0) : opt.initialGuess;
    if (x.size() != n) {
        res.message = "initial guess size mismatch";
        finish();
        return res;
    }

    const double t = opt.evalTime;
    // In-place callbacks sharing one Newton workspace across all homotopy
    // stages; only the gmin shift `g` changes from stage to stage.
    double g = 0.0;
    Vec qScratch, fScratch;
    const num::ResidualInPlaceFn f = [&dae, t, &g, &qScratch](const Vec& xv, Vec& out) {
        dae.eval(t, xv, qScratch, out, nullptr, nullptr);
        for (std::size_t i = 0; i < out.size(); ++i) out[i] += g * xv[i];
    };
    const num::JacobianInPlaceFn jac = [&dae, t, &g, &qScratch, &fScratch](const Vec& xv,
                                                                           Matrix& out) {
        dae.eval(t, xv, qScratch, fScratch, nullptr, &out);
        for (std::size_t i = 0; i < out.rows(); ++i) out(i, i) += g;
    };
    // Sparse twin of `jac`: the gmin diagonal is stamped even when g == 0.0
    // (zero adds still claim their pattern slot), so the final gmin=0 pass
    // reuses the frozen pattern — and SparseLu's symbolic analysis — from
    // the homotopy stages instead of refreezing.  First call: the diagonal
    // adds land in the overflow list and the second endAssembly merges them
    // into the pattern; every later call is fully in-place.
    const num::SparseJacobianInPlaceFn sjac = [&dae, t, &g, &qScratch, &fScratch](
                                                  const Vec& xv, num::SparseMatrix& out) {
        dae.evalSparse(t, xv, qScratch, fScratch, nullptr, &out);
        for (std::size_t i = 0; i < out.rows(); ++i) out.add(i, i, g);
        out.endAssembly();
    };
    num::NewtonWorkspace ws;
    const bool sparse = opt.newton.linearSolver == num::LinearSolver::Sparse;

    double gmin = kGminStart;
    bool lastPass = false;
    while (true) {
        g = lastPass ? 0.0 : gmin;
        Vec trial = x;
        const num::NewtonResult nr = sparse ? num::newtonSolveSparse(f, sjac, trial, ws, opt.newton)
                                            : num::newtonSolve(f, jac, trial, ws, opt.newton);
        res.counters += nr.counters;
        // Keep the trial even when Newton ran out of iterations: the damped
        // iteration is (near-)monotone in the residual, and the partial
        // progress is exactly what lets the next homotopy stage succeed on
        // sharply saturating circuits.
        x = trial;
        if (nr.converged) {
            if (lastPass) {
                res.ok = true;
                res.x = std::move(x);
                res.message = "converged";
                finish();
                return res;
            }
        } else if (lastPass) {
            // gmin schedule lost the path: fall back to pseudo-transient
            // continuation from the best point so far.
            if (pseudoTransient(dae, t, x, opt.newton.absTol, 600, res.counters)) {
                res.ok = true;
                res.x = std::move(x);
                res.message = "converged (pseudo-transient fallback)";
                finish();
                return res;
            }
            res.x = std::move(x);
            res.message = "gmin=0 pass failed: " + nr.message;
            finish();
            return res;
        }
        // Advance the homotopy (even on failure: a smaller gmin sometimes
        // succeeds where a larger one stalled on this circuit family).
        if (gmin <= kGminEnd) {
            lastPass = true;
        } else {
            gmin *= 0.1;
        }
    }
}

}  // namespace phlogon::an
