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
// solved by damped full Newton with Jacobian  C(x1)/h + w G(x1).  Each
// Newton point costs one device pass: the residual's Dae evaluation fills
// q, f, C and G together, the Jacobian callback assembles C/h + w G from
// that pass (Newton calls it only at the point of its latest residual,
// numeric/newton.hpp), and the converged point's q, f, C and G are the last
// pass's.  The stepper owns every buffer the inner loop needs — DAE
// evaluation scratch, the Newton workspace (residual/step/trial/Jacobian/LU
// storage) — so repeated steps perform no heap allocation.

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
    /// holds the new state and q1()/f1() hold q, f at the converged point.
    /// Newton work is accumulated into `counters`.
    bool step(double tNew, double h, const num::Vec& qk, const num::Vec& fk, num::Vec& xNew,
              const num::NewtonOptions& opt, num::SolverCounters& counters);

    const num::Vec& q1() const { return q_; }
    const num::Vec& f1() const { return f_; }
    /// C and G at the converged point, dense.  Under the sparse backend the
    /// pass assembled them as CSR, and this call converts them (only
    /// shooting's dense sensitivity chain asks for them).
    const num::Matrix& c1();
    const num::Matrix& g1();

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
    bool sparse_ = false;

    // The latest device pass: q, f and C, G (dense backend) or their CSR
    // twins (sparse backend).  The CSR patterns (and that of the combined
    // step Jacobian in the workspace) freeze after the first assembly, so
    // steady-state stepping allocates nothing and SparseLu sees a stable
    // pattern to reuse symbolically.
    num::Vec q_, f_;
    num::Matrix c_, g_;
    num::SparseMatrix sc_, sg_;
};

}  // namespace phlogon::an::detail
