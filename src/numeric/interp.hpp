#pragma once
// Interpolation of periodic waveforms.  PSS solutions and PPVs are stored as
// uniform samples over one period; the GAE and phase-domain co-simulation
// need to evaluate them at arbitrary (wrapped) phases.

#include <cstddef>

#include "numeric/matrix.hpp"

namespace phlogon::num {

/// Wrap t into [0, 1).
double wrap01(double t);

/// The cell of a uniform 1-periodic grid of `cells` cells that holds phase
/// t; `s` receives t's local fraction in that cell, in [0, 1).
/// wrap01(t) * cells can round up to `cells`: that corner is the seam knot,
/// cell 0 at s = 0.  The scalar spline evaluators all locate cells here (the
/// AVX2 kernel repeats the same operations lane-wise).
inline std::size_t periodicCell(double t, std::size_t cells, double& s) {
    const double u = wrap01(t) * static_cast<double>(cells);
    const std::size_t i = static_cast<std::size_t>(u);
    if (i >= cells) {
        s = 0.0;
        return 0;
    }
    s = u - static_cast<double>(i);
    return i;
}

/// Piecewise-linear interpolation of a 1-periodic signal given uniform
/// samples x[i] = f(i/N).
class PeriodicLinear {
public:
    PeriodicLinear() = default;
    explicit PeriodicLinear(Vec samples) : x_(std::move(samples)) {}

    std::size_t size() const { return x_.size(); }
    const Vec& samples() const { return x_; }

    double operator()(double t) const;

private:
    Vec x_;
};

/// Cubic spline interpolation of a 1-periodic signal (periodic boundary
/// conditions), C2-smooth.  Smoothness matters for the GAE right-hand side:
/// the ODE integrator and the equilibrium root finder both differentiate it
/// numerically.
///
/// The solved spline is kept as one cubic per knot cell,
/// c0 + s*(c1 + s*(c2 + s*c3)) in the local fraction s (4 doubles per cell,
/// cell-major: the table simd::Kernels::splineAffine reads).  operator(),
/// derivative() and evalMany all evaluate that table after the same
/// periodicCell lookup, so the scalar call, the batched call and every SIMD
/// tier agree bitwise.
class PeriodicCubicSpline {
public:
    PeriodicCubicSpline() = default;
    explicit PeriodicCubicSpline(const Vec& samples);

    std::size_t size() const { return n_; }
    /// The cell polynomials: c0..c3 of cell i at [4i, 4i + 4).
    const Vec& coeffs() const { return c_; }

    double operator()(double t) const;
    /// Derivative with respect to t (per unit period).
    double derivative(double t) const;

    /// Batched affine form out[i] = add + mul * (*this)(t[i]) for i in
    /// [0, n): one pass over contiguous lanes on the process-wide SIMD tier
    /// (numeric/simd/simd.hpp), bitwise equal to n scalar calls on every
    /// tier.  The default add is -0.0, IEEE's exact additive identity, so
    /// evalMany(t, out, n) reproduces operator() signed zeros included.
    void evalMany(const double* t, double* out, std::size_t n, double mul = 1.0,
                  double add = -0.0) const;

private:
    std::size_t n_ = 0;
    Vec c_;
};

/// Resample a (possibly non-uniform) time series onto `n` uniform points over
/// [t0, t0+period), linearly interpolating.  Used to normalize shooting/PSS
/// output onto the 1-periodic grid of eq. (6).
Vec resampleUniform(const Vec& t, const Vec& x, double t0, double period, std::size_t n);

}  // namespace phlogon::num
