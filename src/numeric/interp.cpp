#include "numeric/interp.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "numeric/simd/simd.hpp"

namespace phlogon::num {

double wrap01(double t) {
    double w = t - std::floor(t);
    if (w >= 1.0) w = 0.0;  // guard against floor rounding
    return w;
}

double PeriodicLinear::operator()(double t) const {
    assert(!x_.empty());
    const std::size_t n = x_.size();
    const double u = wrap01(t) * static_cast<double>(n);
    const std::size_t i = static_cast<std::size_t>(u) % n;
    const double frac = u - std::floor(u);
    const std::size_t j = (i + 1) % n;
    return x_[i] + frac * (x_[j] - x_[i]);
}

namespace {

/// Thomas algorithm for a constant-coefficient tridiagonal system with
/// diagonal `diag` (modified at both ends) and off-diagonal `off`.
Vec solveTridiag(double diagFirst, double diag, double diagLast, double off, Vec d) {
    const std::size_t n = d.size();
    Vec c(n, 0.0);
    double b = diagFirst;
    c[0] = off / b;
    d[0] /= b;
    for (std::size_t i = 1; i < n; ++i) {
        const double bi = (i + 1 == n ? diagLast : diag) - off * c[i - 1];
        c[i] = off / bi;
        d[i] = (d[i] - off * d[i - 1]) / bi;
    }
    for (std::size_t i = n - 1; i-- > 0;) d[i] -= c[i] * d[i + 1];
    return d;
}

}  // namespace

PeriodicCubicSpline::PeriodicCubicSpline(const Vec& x) : n_(x.size()) {
    const std::size_t n = n_;
    if (n < 3) throw std::invalid_argument("PeriodicCubicSpline needs >= 3 samples");
    // Solve the cyclic tridiagonal system for second derivatives m_i:
    //   (h/6) m_{i-1} + (2h/3) m_i + (h/6) m_{i+1} = (x_{i+1} - 2 x_i + x_{i-1}) / h
    // with h = 1/n and periodic wraparound, via the O(n) Sherman-Morrison
    // correction of the Thomas algorithm (the spline backs the GAE's g(),
    // built thousands of times inside parameter sweeps).
    const double h = 1.0 / static_cast<double>(n);
    const double off = h / 6.0;   // sub/super diagonal and both corners
    const double diag = 4.0 * off;  // 2h/3
    Vec rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t im = (i + n - 1) % n;
        const std::size_t ip = (i + 1) % n;
        rhs[i] = (x[ip] - 2.0 * x[i] + x[im]) / h;
    }
    // Cyclic correction (Numerical Recipes): gamma = -diag; corners alpha =
    // beta = off.
    const double gamma = -diag;
    const double diagFirst = diag - gamma;
    const double diagLast = diag - off * off / gamma;
    const Vec y = solveTridiag(diagFirst, diag, diagLast, off, rhs);
    Vec u(n, 0.0);
    u[0] = gamma;
    u[n - 1] = off;
    const Vec z = solveTridiag(diagFirst, diag, diagLast, off, u);
    const double fact =
        (y[0] + off * y[n - 1] / gamma) / (1.0 + z[0] + off * z[n - 1] / gamma);
    Vec m = y;
    for (std::size_t i = 0; i < n; ++i) m[i] -= fact * z[i];

    // Rewrite cell i's Hermite form a*x_i + b*x_j + ((a^3-a)m_i + (b^3-b)m_j)h^2/6
    // (j = i + 1 mod n, a = 1-s, b = s) as a cubic in the local fraction s:
    //   c0 = x_i
    //   c1 = (x_j - x_i) - h^2/6 * (2 m_i + m_j)
    //   c2 = h^2/2 * m_i
    //   c3 = h^2/6 * (m_j - m_i)
    const double h2over6 = h * h / 6.0;
    c_.resize(4 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = (i + 1) % n;
        c_[4 * i + 0] = x[i];
        c_[4 * i + 1] = (x[j] - x[i]) - h2over6 * (2.0 * m[i] + m[j]);
        c_[4 * i + 2] = 3.0 * h2over6 * m[i];
        c_[4 * i + 3] = h2over6 * (m[j] - m[i]);
    }
}

double PeriodicCubicSpline::operator()(double t) const {
    double s;
    const double* c = &c_[4 * periodicCell(t, n_, s)];
    return c[0] + s * (c[1] + s * (c[2] + s * c[3]));
}

double PeriodicCubicSpline::derivative(double t) const {
    double s;
    const double* c = &c_[4 * periodicCell(t, n_, s)];
    return static_cast<double>(n_) * (c[1] + s * (2.0 * c[2] + s * (3.0 * c[3])));
}

void PeriodicCubicSpline::evalMany(const double* t, double* out, std::size_t n, double mul,
                                   double add) const {
    simd::kernels(simd::resolveTier()).splineAffine(c_.data(), n_, t, out, n, mul, add);
}

Vec resampleUniform(const Vec& t, const Vec& x, double t0, double period, std::size_t n) {
    assert(t.size() == x.size() && t.size() >= 2);
    Vec out(n);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double ti = t0 + period * static_cast<double>(i) / static_cast<double>(n);
        while (k + 2 < t.size() && t[k + 1] < ti) ++k;
        // Clamp outside the sampled range.
        if (ti <= t.front()) {
            out[i] = x.front();
        } else if (ti >= t.back()) {
            out[i] = x.back();
        } else {
            // The advance loop above already positioned k: it stops with
            // t[k+1] >= ti, or at k == size-2 where t[k+1] = t.back() > ti
            // in this branch.  (A second advance loop here was dead code.)
            const double dt = t[k + 1] - t[k];
            const double f = dt > 0 ? (ti - t[k]) / dt : 0.0;
            out[i] = x[k] + f * (x[k + 1] - x[k]);
        }
    }
    return out;
}

}  // namespace phlogon::num
