#pragma once
// Allocating reference forms around num::newtonSolve for the tests: the
// plain-callback newtonSolve and a central-difference Jacobian that the
// device-stamp tests check analytic Jacobians against.

#include <cmath>
#include <functional>

#include "numeric/newton.hpp"

namespace phlogon::testutil {

using num::Matrix;
using num::Vec;

/// Callback evaluating the residual F(x).
using ResidualFn = std::function<Vec(const Vec&)>;
/// Callback evaluating the Jacobian dF/dx.
using JacobianFn = std::function<Matrix(const Vec&)>;

/// Solve F(x) = 0 starting from `x` (updated in place) with a fresh
/// workspace: the in-place solver behind plain callbacks.
inline num::NewtonResult newtonSolve(const ResidualFn& f, const JacobianFn& jac, Vec& x,
                                     const num::NewtonOptions& opt = {}) {
    num::NewtonWorkspace ws;
    const num::ResidualInPlaceFn fi = [&f](const Vec& xv, Vec& out) { out = f(xv); };
    const num::JacobianInPlaceFn ji = [&jac](const Vec& xv, Matrix& out) { out = jac(xv); };
    return num::newtonSolve(fi, ji, x, ws, opt);
}

/// Finite-difference Jacobian of `f` at `x` (central differences).
inline Matrix fdJacobian(const ResidualFn& f, const Vec& x, double relStep = 1e-6) {
    const std::size_t n = x.size();
    const Vec f0 = f(x);
    Matrix j(f0.size(), n);
    Vec xp = x;
    for (std::size_t c = 0; c < n; ++c) {
        const double h = relStep * (std::abs(x[c]) + 1.0);
        xp[c] = x[c] + h;
        const Vec fp = f(xp);
        xp[c] = x[c] - h;
        const Vec fm = f(xp);
        xp[c] = x[c];
        for (std::size_t r = 0; r < f0.size(); ++r) j(r, c) = (fp[r] - fm[r]) / (2.0 * h);
    }
    return j;
}

}  // namespace phlogon::testutil
