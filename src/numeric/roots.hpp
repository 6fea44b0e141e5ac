#pragma once
// Scalar root finding.  The GAE equilibrium equation (paper eq. 5) is a
// scalar equation in Δφ; we bracket sign changes on a grid and polish each
// bracket with Brent's method.

#include <functional>
#include <optional>
#include <vector>

namespace phlogon::num {

using ScalarFn = std::function<double(double)>;

/// Brent's method on a bracketing interval [a, b] with f(a)*f(b) <= 0.
std::optional<double> brent(const ScalarFn& f, double a, double b, double tol = 1e-12,
                            int maxIter = 200);

/// Find all roots of a `period`-periodic function over one period starting at
/// `lo` by scanning `gridPoints` samples for sign changes and polishing each
/// bracket with brent.  Exact zeros on grid points are kept.  The seam
/// interval [lo + (N-1)h, lo + period) is bracketed against sample 0's
/// value, so a root sitting exactly at (or straddling) the periodic seam is
/// found exactly once — neither dropped nor double-reported.  Returned roots
/// lie in [lo, lo+period) and roots closer than `minSeparation` are merged,
/// cyclically (a root within `minSeparation` of both ends counts once).
/// `f` must accept arguments slightly beyond lo+period (periodic
/// evaluation).
std::vector<double> findAllRootsPeriodic(const ScalarFn& f, double lo, double period,
                                         std::size_t gridPoints = 720, double tol = 1e-12,
                                         double minSeparation = 1e-9);

}  // namespace phlogon::num
