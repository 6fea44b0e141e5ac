#include "numeric/lu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"

namespace phlogon::num {

// Process-wide LU call counts for the run report, named distinctly from the
// per-analysis "lu.factorizations" (fed by obs::recordSolverCounters from
// SolverCounters) so the two aggregation paths never double-count.

bool LuFactor::refactor(const Matrix& a, double pivotTol) {
    PHLOGON_COUNT_METRIC("lu.factor.calls");
    valid_ = false;
    if (a.rows() != a.cols() || a.rows() == 0) return false;
    const std::size_t n = a.rows();
    if (lu_.rows() != n || lu_.cols() != n) lu_.resize(n, n);
    // One read of `a`: copy it, take its max-abs entry for the pivot scale,
    // and reject any NaN or inf.
    double scale = 0.0;
    const double* src = a.data();
    double* dst = lu_.data();
    for (std::size_t i = 0; i < n * n; ++i) {
        const double v = src[i];
        if (!std::isfinite(v)) return false;
        dst[i] = v;
        scale = std::max(scale, std::abs(v));
    }
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    const double tol = pivotTol * std::max(scale, 1e-300);

    Matrix& lu = lu_;
    for (std::size_t k = 0; k < n; ++k) {
        // Pivot search in column k.
        std::size_t p = k;
        double best = std::abs(lu(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double v = std::abs(lu(i, k));
            if (v > best) {
                best = v;
                p = i;
            }
        }
        if (best < tol) return false;
        if (p != k) {
            for (std::size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(p, j));
            std::swap(perm_[k], perm_[p]);
        }
        const double inv = 1.0 / lu(k, k);
        for (std::size_t i = k + 1; i < n; ++i) {
            const double m = lu(i, k) * inv;
            lu(i, k) = m;
            if (m == 0.0) continue;
            for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= m * lu(k, j);
        }
    }
    valid_ = true;
    return true;
}

std::optional<LuFactor> LuFactor::factor(const Matrix& a, double pivotTol) {
    LuFactor f;
    if (!f.refactor(a, pivotTol)) return std::nullopt;
    return f;
}

void LuFactor::solveInto(const Vec& b, Vec& x) const {
    PHLOGON_COUNT_METRIC("lu.solve.calls");
    const std::size_t n = size();
    assert(b.size() == n);
    assert(&b != &x);
    x.resize(n);
    // Forward substitution with permutation: L y = P b (y stored in x).
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[perm_[i]];
        for (std::size_t j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
        x[i] = s;
    }
    // Back substitution: U x = y.
    for (std::size_t ii = n; ii-- > 0;) {
        double s = x[ii];
        for (std::size_t j = ii + 1; j < n; ++j) s -= lu_(ii, j) * x[j];
        x[ii] = s / lu_(ii, ii);
    }
}

Vec LuFactor::solve(const Vec& b) const {
    Vec x;
    solveInto(b, x);
    return x;
}

Vec LuFactor::solveTransposed(const Vec& b) const {
    // A = P^T L U  =>  A^T = U^T L^T P.  Solve U^T z = b, L^T w = z, x = P^T w.
    const std::size_t n = size();
    assert(b.size() == n);
    Vec z(n);
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t j = 0; j < i; ++j) s -= lu_(j, i) * z[j];
        z[i] = s / lu_(i, i);
    }
    Vec w(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double s = z[ii];
        for (std::size_t j = ii + 1; j < n; ++j) s -= lu_(j, ii) * w[j];
        w[ii] = s;
    }
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = w[i];
    return x;
}

void LuFactor::solveMatrixInto(const Matrix& b, Matrix& x) const {
    PHLOGON_COUNT_METRIC("lu.solveMatrix.calls");
    const std::size_t n = size();
    assert(b.rows() == n);
    assert(&b != &x);
    const std::size_t m = b.cols();
    x.resize(n, m);
    // Forward substitution, all RHS columns per pivot row: row i of x is a
    // contiguous m-vector, so the j < i updates stream through memory
    // instead of striding column-by-column.
    for (std::size_t i = 0; i < n; ++i) {
        double* xi = x.data() + i * m;
        const std::size_t bi = perm_[i];
        for (std::size_t c = 0; c < m; ++c) xi[c] = b(bi, c);
        for (std::size_t j = 0; j < i; ++j) {
            const double l = lu_(i, j);
            if (l == 0.0) continue;
            const double* xj = x.data() + j * m;
            for (std::size_t c = 0; c < m; ++c) xi[c] -= l * xj[c];
        }
    }
    // Back substitution, same row-sweep layout.
    for (std::size_t ii = n; ii-- > 0;) {
        double* xi = x.data() + ii * m;
        for (std::size_t j = ii + 1; j < n; ++j) {
            const double u = lu_(ii, j);
            if (u == 0.0) continue;
            const double* xj = x.data() + j * m;
            for (std::size_t c = 0; c < m; ++c) xi[c] -= u * xj[c];
        }
        const double pivot = lu_(ii, ii);
        for (std::size_t c = 0; c < m; ++c) xi[c] /= pivot;
    }
}

std::optional<std::pair<double, Vec>> inverseIteration(const Matrix& a, double shift, int maxIter,
                                                       double tol) {
    const std::size_t n = a.rows();
    if (n == 0 || a.cols() != n) return std::nullopt;
    Matrix shifted = a;
    for (std::size_t i = 0; i < n; ++i) shifted(i, i) -= shift;
    auto f = LuFactor::factor(shifted);
    // If (A - shift I) is exactly singular, nudge the shift slightly.
    if (!f) {
        const double eps = 1e-10 * std::max(1.0, a.normMax());
        for (std::size_t i = 0; i < n; ++i) shifted(i, i) -= eps;
        f = LuFactor::factor(shifted);
        if (!f) return std::nullopt;
    }
    Vec v(n, 1.0);
    v[0] = 1.5;  // break symmetry
    double lambda = shift;
    for (int it = 0; it < maxIter; ++it) {
        Vec w = f->solve(v);
        const double nw = norm2(w);
        if (!(nw > 0) || !std::isfinite(nw)) return std::nullopt;
        w *= 1.0 / nw;
        // Rayleigh quotient for the eigenvalue of A.
        const Vec aw = a * w;
        const double newLambda = dot(w, aw);
        const Vec diff = w - v;
        const Vec sum = w + v;
        const double delta = std::min(norm2(diff), norm2(sum));  // sign-insensitive
        v = w;
        if (delta < tol && std::abs(newLambda - lambda) < tol * std::max(1.0, std::abs(newLambda))) {
            return std::make_pair(newLambda, v);
        }
        lambda = newLambda;
    }
    return std::make_pair(lambda, v);
}

}  // namespace phlogon::num
