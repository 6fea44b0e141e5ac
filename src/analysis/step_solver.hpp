#pragma once
// Zero-allocation implicit step solver shared by transient analysis and the
// PSS shooting integrator.
//
// One TRAP step of the circuit DAE  d/dt q(x) + f(x, t) = 0  is the
// nonlinear system (per row i, with w the collocation weight of
// trap_util.hpp)
//
//     (q(x1) - qk) / h + w f(x1) + (1 - w) fk = 0,
//
// solved by damped full Newton with Jacobian  C(x1)/h + w G(x1).  The
// stepper owns every buffer the inner loop needs — DAE evaluation scratch,
// the Newton workspace (residual/step/trial/Jacobian/LU storage) — so
// repeated steps perform no heap allocation.

#include <vector>

#include "analysis/trap_util.hpp"
#include "circuit/dae.hpp"
#include "numeric/counters.hpp"
#include "numeric/newton.hpp"

namespace phlogon::an::detail {

class ImplicitStepper {
public:
    /// `alg` is the structural algebraic-row mask from algebraicRows():
    /// those rows are collocated at the new point, the rest take TRAP weights.
    ImplicitStepper(const ckt::Dae& dae, std::vector<bool> alg);

    /// Solve one implicit step ending at time `tNew` with step size `h`,
    /// from old-point charges/currents (`qk`, `fk`).  The caller presets
    /// `xNew` with the predictor (typically the old state); on success it
    /// holds the new state and q1()/f1() hold q, f refreshed at the
    /// converged point (plus C1()/G1() when `wantMatrices`).  Newton work is
    /// accumulated into `counters`.
    bool step(double tNew, double h, const num::Vec& qk, const num::Vec& fk, num::Vec& xNew,
              const num::NewtonOptions& opt, num::SolverCounters& counters,
              bool wantMatrices = false);

    const num::Vec& q1() const { return q1_; }
    const num::Vec& f1() const { return f1_; }
    const num::Matrix& c1() const { return c1_; }
    const num::Matrix& g1() const { return g1_; }

private:
    const ckt::Dae* dae_;
    std::vector<bool> alg_;

    num::NewtonWorkspace ws_;
    num::ResidualInPlaceFn residual_;
    num::JacobianInPlaceFn jacobian_;
    num::SparseJacobianInPlaceFn sparseJacobian_;

    // Current-step parameters captured by the callbacks.
    double tNew_ = 0.0;
    double h_ = 0.0;
    const num::Vec* qk_ = nullptr;
    const num::Vec* fk_ = nullptr;

    // Evaluation scratch (callbacks) and refreshed converged-point values.
    num::Vec qv_, fv_, q1_, f1_;
    num::Matrix cj_, gj_, c1_, g1_;
    // Sparse-backend scratch: C and G assembled by Dae::evalSparse.  Their
    // patterns (and that of the combined step Jacobian in the workspace)
    // freeze after the first assembly, so steady-state stepping allocates
    // nothing and SparseLu sees a stable pattern to reuse symbolically.
    num::SparseMatrix scj_, sgj_;
};

}  // namespace phlogon::an::detail
