#pragma once
// The Generalized Adler Equation (GAE), paper eqs. (4)-(5).
//
// For an oscillator with PPV v and periodic injections b(t) whose fundamental
// is f1 ~ f0, the slow phase difference dphi(t) (in cycles, relative to the
// f1 reference) obeys the averaged scalar ODE
//
//     d(dphi)/dt = -(f1 - f0) + f0 * g(dphi),
//     g(dphi)    = integral over one cycle of v(psi + dphi)^T b(psi) d psi,
//
// a cyclic cross-correlation of the PPV with the injection waveforms.
// Equilibria satisfy  (f1 - f0)/f0 = g(dphi*)  (paper eq. 5) and are stable
// iff g'(dphi*) < 0 (Lyapunov, scalar case) — the paper's Fig. 5/10 plots of
// "LHS vs RHS" are exactly lhs() against g().

#include <vector>

#include "core/injection.hpp"
#include "core/ppv_model.hpp"
#include "numeric/interp.hpp"

namespace phlogon::core {

struct GaeEquilibrium {
    double dphi = 0.0;    ///< lock phase in cycles, [0,1)
    double gSlope = 0.0;  ///< g'(dphi)
    bool stable = false;  ///< g'(dphi) < 0
};

class Gae {
public:
    Gae() = default;
    /// Derive the GAE from a PPV macromodel, reference frequency f1 and a
    /// set of injections.  `gridSize` is the number of points of the
    /// correlation grid; fewer than 3 throw std::invalid_argument.
    Gae(const PpvModel& model, double f1, const std::vector<Injection>& injections,
        std::size_t gridSize = 1024);

    double f0() const { return f0_; }
    double f1() const { return f1_; }
    /// LHS of eq. (5): (f1 - f0)/f0.
    double lhs() const { return (f1_ - f0_) / f0_; }

    /// RHS of eq. (5): the correlation nonlinearity g(dphi), dphi in cycles.
    double g(double dphi) const { return gSpline_(dphi); }
    double gDerivative(double dphi) const { return gSpline_.derivative(dphi); }
    /// Full averaged RHS: d(dphi)/dt = -(f1-f0) + f0*g(dphi).
    double rhs(double dphi) const { return -(f1_ - f0_) + f0_ * g(dphi); }

    /// rhs() over n contiguous lanes in one pass over the g table, on the
    /// process-wide SIMD tier and bitwise equal to n scalar calls: the one
    /// batched right-hand side of the GAE transient and Monte-Carlo engines.
    void rhsMany(const double* dphi, double* out, std::size_t n) const {
        gSpline_.evalMany(dphi, out, n, f0_, -(f1_ - f0_));
    }

    double gMin() const { return gMin_; }
    double gMax() const { return gMax_; }

    /// All equilibria (roots of rhs) in [0,1), with stability classification.
    std::vector<GaeEquilibrium> equilibria() const;
    std::vector<GaeEquilibrium> stableEquilibria() const;
    /// True when at least one stable lock exists: the SHIL/IL criterion.
    bool locks() const;

    /// The raw g grid (for plotting Fig. 5/10-style figures).
    const Vec& gGrid() const { return gGrid_; }
    std::size_t gridSize() const { return gGrid_.size(); }

private:
    double f0_ = 0.0;
    double f1_ = 0.0;
    double gMin_ = 0.0;
    double gMax_ = 0.0;
    Vec gGrid_;
    num::PeriodicCubicSpline gSpline_;
};

}  // namespace phlogon::core
