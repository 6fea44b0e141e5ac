#pragma once
// Shared discretization details for the implicit integrators.
//
// Plain trapezoidal integration is marginally stable on the *algebraic* rows
// of an index-1 DAE: it enforces only the average of the constraint at the
// two time points, so constraint violations (and their sensitivities)
// oscillate undamped as (-1)^k.  The standard remedy, used by all analyses
// here (transient, shooting PSS, PPV step matrices), is to collocate
// algebraic rows at t_{n+1} (backward-Euler weights) while differential rows
// keep the trapezoidal weights.

#include <algorithm>
#include <cmath>
#include <vector>

#include "numeric/matrix.hpp"

namespace phlogon::an::detail {

/// Rows of the DAE with no charge contribution (row of C identically ~0).
/// The C stamps of this codebase's devices are state-independent (linear
/// capacitors only), so the flags are structural and can be computed once.
inline std::vector<bool> algebraicRows(const num::Matrix& c) {
    const double scale = std::max(c.normMax(), 1e-300);
    std::vector<bool> alg(c.rows());
    for (std::size_t r = 0; r < c.rows(); ++r) {
        double rowMax = 0.0;
        for (std::size_t j = 0; j < c.cols(); ++j)
            rowMax = std::max(rowMax, std::abs(c(r, j)));
        alg[r] = rowMax < 1e-12 * scale;
    }
    return alg;
}

/// Weight of f(x_{n+1}) in row r (old-point weight is 1 minus this).
inline double newWeight(const std::vector<bool>& alg, std::size_t r) {
    return alg[r] ? 1.0 : 0.5;
}

}  // namespace phlogon::an::detail
