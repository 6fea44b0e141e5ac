#pragma once
// LU factorization with partial pivoting, the workhorse linear solver behind
// Newton iterations, transient steps and the shooting/PPV sensitivity chains.

#include <optional>

#include "numeric/matrix.hpp"

namespace phlogon::num {

/// Partial-pivoted LU factorization of a square matrix.
///
/// Stores L and U packed in a single matrix plus the row-permutation.  A
/// factorization is immutable between `refactor` calls; `solve` can be
/// called any number of times (this matters for the PPV backward-adjoint
/// iteration where the same step Jacobians are reused every period).
///
/// Two usage styles:
///   * one-shot: `auto lu = LuFactor::factor(a);` (allocates fresh storage);
///   * hot path: a default-constructed LuFactor kept alive across steps and
///     re-filled with `refactor(a)`, which reuses the internal storage and
///     performs no allocation once warmed up.
class LuFactor {
public:
    /// Empty factorization; call `refactor` before solving.
    LuFactor() = default;

    /// Factor `a`; returns std::nullopt when the matrix holds a NaN or inf
    /// or is numerically singular (pivot below `pivotTol * normMax`).
    static std::optional<LuFactor> factor(const Matrix& a, double pivotTol = 1e-14);

    /// Re-factor `a` in place, reusing existing storage (no allocation when
    /// the size is unchanged).  Returns false — and leaves the object
    /// invalid — when `a` is non-square, empty, holds a NaN or inf, or is
    /// numerically singular.  `a` is read once: the copy also yields the
    /// pivot scale and the finiteness check.
    bool refactor(const Matrix& a, double pivotTol = 1e-14);

    /// True after a successful factor/refactor.
    bool valid() const { return valid_; }

    std::size_t size() const { return lu_.rows(); }

    /// Solve A x = b.
    Vec solve(const Vec& b) const;
    /// Solve A x = b into caller-owned storage (resized; must not alias b).
    void solveInto(const Vec& b, Vec& x) const;
    /// Solve A^T x = b into caller-owned storage (the PPV adjoint sweep);
    /// `work` holds the triangular sweeps' intermediate.  Both are resized,
    /// and `work` must alias neither b nor x.
    void solveTransposedInto(const Vec& b, Vec& x, Vec& work) const;
    /// Solve A X = B for a multi-column RHS into caller-owned storage
    /// (resized; must not alias b).
    /// The substitution sweeps all RHS columns per pivot row — contiguous
    /// row-major accesses instead of the strided column-by-column walk —
    /// which is what the (n+1)-column PSS sensitivity chain hits every step.
    void solveMatrixInto(const Matrix& b, Matrix& x) const;

private:
    Matrix lu_;
    std::vector<std::size_t> perm_;  // row permutation: row i of PA is row perm_[i] of A
    bool valid_ = false;
};

/// Eigen-pair of the eigenvalue of `a` closest to `shift`, by inverse
/// iteration.  Returns (eigenvalue, eigenvector) or nullopt on breakdown.
/// Used to pull the Floquet eigenvalue ~1 out of the monodromy matrix.
std::optional<std::pair<double, Vec>> inverseIteration(const Matrix& a, double shift,
                                                       int maxIter = 200, double tol = 1e-12);

}  // namespace phlogon::num
