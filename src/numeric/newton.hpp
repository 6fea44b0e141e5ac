#pragma once
// Damped Newton-Raphson for nonlinear algebraic systems F(x) = 0.
//
// Used for DC operating points, implicit transient steps and PSS shooting.
// The caller supplies residual and Jacobian callbacks; the solver owns the
// damping / convergence policy.
//
// The callbacks write into caller-owned buffers, and a NewtonWorkspace
// preallocates every temporary (residual, step, trial point, Jacobian
// storage, LU scratch) and can be carried across solves — e.g. across the
// time steps of a transient — so the inner loop performs no heap allocation
// at all.  The allocating wrapper and the finite-difference Jacobian that
// the tests check against live in tests/common/newton_oracle.hpp.
//
// Every iteration evaluates and factors a fresh Jacobian (full Newton);
// DESIGN.md §10 gives the measurements behind keeping no chord variant.
//
// Callback contract: the solver calls jac(x) only at the x of its latest
// f(x), bit for bit, and returns with x at the point of its latest f(x).
// A caller may therefore compute everything the Jacobian needs in the
// residual's pass (the circuit step solver fills q, f, C and G in one
// device evaluation) and have jac(x) assemble from that stored pass.

#include <functional>
#include <string>

#include "numeric/counters.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "numeric/sparse_lu.hpp"

namespace phlogon::num {

/// Linear-algebra backend of the Newton inner loop (DESIGN.md §15).  Dense
/// is the default and bit-for-bit the historical behaviour; Sparse routes
/// the Jacobian through pattern-cached CSR assembly and the fill-reducing
/// SparseLu, which is what makes 500+-unknown MNA systems tractable.
enum class LinearSolver { Dense, Sparse };

struct NewtonOptions {
    int maxIter = 60;
    /// On the residual infinity-norm.  A solve also converges once an update
    /// falls under 1e-12 (|x|_inf + 1) with the residual under sqrt(absTol).
    double absTol = 1e-10;
    /// Line-search damping: halve the step until the residual norm decreases,
    /// at most this many times per iteration.  0 disables damping.
    int maxDampings = 8;
    /// Optional per-unknown step clamp (e.g. limit voltage updates to ~1 V to
    /// keep exponential/quadratic device models from overflowing).  <=0
    /// disables clamping.
    double maxStep = 0.0;
    /// Linear-algebra backend.  Dense (default) keeps the historical
    /// behaviour bitwise; Sparse requires the sparse-capable newtonSolve
    /// overload (analyses plumb this automatically — see SolverOptions
    /// aliases in the analysis option structs).
    LinearSolver linearSolver = LinearSolver::Dense;
};

struct NewtonResult {
    bool converged = false;
    int iterations = 0;
    double residualNorm = 0.0;
    std::string message;
    /// Work performed by this solve (rhsEvals/jacEvals/luFactorizations/
    /// newtonIters/dampingEvents; step fields unused here).
    SolverCounters counters;
};

/// In-place residual: write F(x) into `fx` (callback sizes the output).
using ResidualInPlaceFn = std::function<void(const Vec& x, Vec& fx)>;
/// In-place Jacobian: write dF/dx into `j` (callback sizes the output).
/// Called only at the x of the latest residual call (see the file comment).
using JacobianInPlaceFn = std::function<void(const Vec& x, Matrix& j)>;
/// In-place sparse Jacobian: assemble dF/dx into the pattern-cached `j`
/// (callback begins/ends assembly; the pattern freezes after the first call
/// and subsequent assemblies are in-place accumulations).  Same call
/// contract as JacobianInPlaceFn.
using SparseJacobianInPlaceFn = std::function<void(const Vec& x, SparseMatrix& j)>;

namespace detail {
struct NewtonEngine;  // shared dense/sparse iteration loop (newton.cpp)
}

/// Preallocated scratch for newtonSolve.  Create once, pass to every solve
/// in a loop; all buffers (and the Jacobian and LU storage) are reused, but
/// no factorization carries over: every iteration refactors.
class NewtonWorkspace {
    friend struct detail::NewtonEngine;
    Vec fx_, dx_, xTrial_, fTrial_;
    Matrix jac_;
    LuFactor lu_;
    // Sparse twin of (jac_, lu_): the CSR keeps its frozen pattern and the
    // SparseLu its symbolic factorization across every solve sharing this
    // workspace, so steady-state Newton work is numeric-only refactors.
    SparseMatrix sjac_;
    SparseLu slu_;
};

/// Solve F(x) = 0 starting from `x` (updated in place), reusing `ws` for all
/// temporaries.  Zero heap allocation once the workspace is warm.
NewtonResult newtonSolve(const ResidualInPlaceFn& f, const JacobianInPlaceFn& jac, Vec& x,
                         NewtonWorkspace& ws, const NewtonOptions& opt = {});

/// Sparse-backend newtonSolve: same damping policy, with the Jacobian
/// assembled into the workspace's pattern-cached CSR and factorized by the
/// fill-reducing SparseLu (numeric-only refactors once the pattern froze).
/// Used by analyses when NewtonOptions::linearSolver == LinearSolver::Sparse.
NewtonResult newtonSolveSparse(const ResidualInPlaceFn& f, const SparseJacobianInPlaceFn& jac,
                               Vec& x, NewtonWorkspace& ws, const NewtonOptions& opt = {});

}  // namespace phlogon::num
