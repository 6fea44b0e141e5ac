#include "numeric/newton.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace phlogon::num {

namespace {
/// Step-size convergence: an update under kStepTol * (|x|_inf + 1).
constexpr double kStepTol = 1e-12;
}  // namespace

/// Shared iteration loop behind newtonSolve/newtonSolveSparse, templated
/// over the linear backend.  A single friend of NewtonWorkspace (nested
/// members inherit the access), so the public API stays two free functions.
struct detail::NewtonEngine {

/// Dense linear backend: stamp into the workspace dense Jacobian, factor
/// with LuFactor.  Operation-for-operation the historical newtonSolve body,
/// so the dense path stays bitwise-identical.
struct DenseBackend {
    NewtonWorkspace& ws;
    const JacobianInPlaceFn& jac;

    bool refresh(const Vec& x, NewtonResult& res) {
        jac(x, ws.jac_);
        ++res.counters.jacEvals;
        if (!ws.lu_.refactor(ws.jac_)) return false;
        ++res.counters.luFactorizations;
        return true;
    }
    void solveInto(const Vec& b, Vec& dx) const { ws.lu_.solveInto(b, dx); }
};

/// Sparse linear backend: assemble into the workspace's pattern-cached CSR,
/// factor with the fill-reducing SparseLu.  Once the pattern froze (after
/// the first assembly), every subsequent refresh is a numeric-only refactor
/// reusing the symbolic analysis and pivot order.
struct SparseBackend {
    NewtonWorkspace& ws;
    const SparseJacobianInPlaceFn& jac;

    bool refresh(const Vec& x, NewtonResult& res) {
        jac(x, ws.sjac_);
        ++res.counters.jacEvals;
        const std::size_t fullBefore = ws.slu_.fullFactorCount();
        if (!ws.slu_.refactor(ws.sjac_)) return false;
        ++res.counters.luFactorizations;
        if (ws.slu_.fullFactorCount() > fullBefore)
            ++res.counters.sparseFactorizations;
        else
            ++res.counters.sparseRefactors;
        res.counters.jacobianNnz = std::max(res.counters.jacobianNnz, ws.sjac_.nnz());
        res.counters.factorNnz = std::max(res.counters.factorNnz, ws.slu_.factorNnz());
        return true;
    }
    void solveInto(const Vec& b, Vec& dx) const { ws.slu_.solveInto(b, dx); }
};

template <class LinBackend>
static NewtonResult newtonLoop(const ResidualInPlaceFn& f, LinBackend lin, Vec& x,
                               NewtonWorkspace& ws, const NewtonOptions& opt) {
    NewtonResult res;
    // Terminal bookkeeping: mirror iterations into the counters and flag
    // damping-exhausted fallbacks in the message (they mean the result sits
    // on a residual ridge the line search could not descend).
    const auto finalize = [&res](bool converged, double fn, std::string msg) {
        res.converged = converged;
        res.residualNorm = fn;
        if (res.counters.dampingEvents > 0) msg += " (damping exhausted)";
        res.message = std::move(msg);
        res.counters.newtonIters = static_cast<std::size_t>(res.iterations);
        PHLOGON_COUNT_METRIC("newton.solves");
        if (!converged) PHLOGON_COUNT_METRIC("newton.failures");
    };

    f(x, ws.fx_);
    ++res.counters.rhsEvals;
    double fn = normInf(ws.fx_);
    for (int it = 0; it < opt.maxIter; ++it) {
        res.iterations = it + 1;
        if (fn <= opt.absTol) {
            finalize(true, fn, "converged on residual");
            return res;
        }
        // x is the point of the latest f(x): the header's callback contract.
        if (!lin.refresh(x, res)) {
            finalize(false, fn, "singular Jacobian");
            return res;
        }
        lin.solveInto(ws.fx_, ws.dx_);
        for (double& d : ws.dx_) d = -d;
        if (opt.maxStep > 0.0) {
            const double dn = normInf(ws.dx_);
            if (dn > opt.maxStep) ws.dx_ *= opt.maxStep / dn;
        }

        // Damped update: halve until the residual shrinks (or give up damping
        // and accept the full step; Newton sometimes needs to climb a ridge).
        double lambda = 1.0;
        double fnTrial = 0.0;
        bool accepted = false;
        for (int d = 0; d <= opt.maxDampings; ++d) {
            ws.xTrial_ = x;
            axpy(lambda, ws.dx_, ws.xTrial_);
            f(ws.xTrial_, ws.fTrial_);
            ++res.counters.rhsEvals;
            fnTrial = normInf(ws.fTrial_);
            if (std::isfinite(fnTrial) && (fnTrial < fn || opt.maxDampings == 0)) {
                accepted = true;
                break;
            }
            lambda *= 0.5;
        }
        if (!accepted) {
            if (!std::isfinite(fnTrial)) {
                finalize(false, fn, "residual became non-finite");
                return res;
            }
            // Accept the most-damped step anyway; record that the damping
            // budget was exhausted so callers can see the solve struggled.
            ++res.counters.dampingEvents;
        }

        const double stepNorm = lambda * normInf(ws.dx_);
        x = ws.xTrial_;
        std::swap(ws.fx_, ws.fTrial_);
        fn = fnTrial;

        if (stepNorm <= kStepTol * (normInf(x) + 1.0) && fn <= std::sqrt(opt.absTol)) {
            finalize(true, fn, "converged on step size");
            return res;
        }
    }
    finalize(fn <= opt.absTol, fn,
             fn <= opt.absTol ? "converged on residual" : "max iterations reached");
    return res;
}

};  // struct detail::NewtonEngine

NewtonResult newtonSolve(const ResidualInPlaceFn& f, const JacobianInPlaceFn& jac, Vec& x,
                         NewtonWorkspace& ws, const NewtonOptions& opt) {
    using E = detail::NewtonEngine;
    return E::newtonLoop(f, E::DenseBackend{ws, jac}, x, ws, opt);
}

NewtonResult newtonSolveSparse(const ResidualInPlaceFn& f, const SparseJacobianInPlaceFn& jac,
                               Vec& x, NewtonWorkspace& ws, const NewtonOptions& opt) {
    using E = detail::NewtonEngine;
    return E::newtonLoop(f, E::SparseBackend{ws, jac}, x, ws, opt);
}

}  // namespace phlogon::num
