#pragma once
// Per-analysis performance counters for the nonlinear-solver hot path.
//
// Every analysis (DC, transient, shooting PSS, GAE transient) accumulates
// one SolverCounters instance into its result struct, so callers — and
// perfbench's layer attribution — can see exactly where the work went:
// residual evaluations, Jacobian evaluations (device sweeps with matrix
// stamping, roughly 2x a residual eval), LU factorizations, Newton
// iterations, accepted/rejected time steps and wall time.

#include <cstddef>
#include <cstdio>
#include <string>

namespace phlogon::num {

struct SolverCounters {
    std::size_t rhsEvals = 0;         ///< residual / RHS evaluations
    std::size_t jacEvals = 0;         ///< Jacobian (C/G stamp) evaluations
    std::size_t luFactorizations = 0; ///< linear-system factorizations (dense or sparse)
    std::size_t newtonIters = 0;      ///< Newton iterations (all solves)
    std::size_t dampingEvents = 0;    ///< damping-exhausted fallback accepts
    std::size_t steps = 0;            ///< accepted time steps
    std::size_t rejectedSteps = 0;    ///< steps rejected by LTE/step control
    double wallSeconds = 0.0;         ///< wall-clock time of the analysis

    // Sparse-engine detail (§15): of the luFactorizations above, how many
    // ran the full symbolic+pivoting path vs the numeric-only refactor that
    // reuses the frozen pattern and recorded pivot sequence.  The nnz pair
    // records the assembled Jacobian's structural nonzeros and the L+U fill
    // (high-water marks, not sums — they describe the system, not work).
    std::size_t sparseFactorizations = 0; ///< full sparse factorizations (symbolic + pivot)
    std::size_t sparseRefactors = 0;      ///< numeric-only refactors (symbolic reuse)
    std::size_t jacobianNnz = 0;          ///< sparse Jacobian pattern nnz (max seen)
    std::size_t factorNnz = 0;            ///< sparse L+U nnz incl. fill (max seen)

    SolverCounters& operator+=(const SolverCounters& o) {
        rhsEvals += o.rhsEvals;
        jacEvals += o.jacEvals;
        luFactorizations += o.luFactorizations;
        newtonIters += o.newtonIters;
        dampingEvents += o.dampingEvents;
        steps += o.steps;
        rejectedSteps += o.rejectedSteps;
        wallSeconds += o.wallSeconds;
        sparseFactorizations += o.sparseFactorizations;
        sparseRefactors += o.sparseRefactors;
        jacobianNnz = jacobianNnz > o.jacobianNnz ? jacobianNnz : o.jacobianNnz;
        factorNnz = factorNnz > o.factorNnz ? factorNnz : o.factorNnz;
        return *this;
    }

    /// One-line summary, e.g. for logs and bench tables.  The sparse detail
    /// is appended only when the sparse engine actually ran.
    std::string summary() const {
        char buf[320];
        int len = std::snprintf(buf, sizeof buf,
                                "steps=%zu(+%zu rej) newton=%zu rhs=%zu jac=%zu lu=%zu damp=%zu "
                                "wall=%.3fms",
                                steps, rejectedSteps, newtonIters, rhsEvals, jacEvals,
                                luFactorizations, dampingEvents, wallSeconds * 1e3);
        if ((sparseFactorizations > 0 || sparseRefactors > 0) && len > 0 &&
            static_cast<std::size_t>(len) < sizeof buf) {
            std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len),
                          " sparse=%zu(+%zu refac) nnz=%zu fill=%zu", sparseFactorizations,
                          sparseRefactors, jacobianNnz, factorNnz);
        }
        return buf;
    }
};

}  // namespace phlogon::num
