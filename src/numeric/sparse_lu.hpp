#pragma once
// Fill-reducing sparse LU: the sparse twin of LuFactor (DESIGN.md §15).
//
// Factorizes P A Q = L U where Q is a fill-reducing minimum-degree column
// preorder of the symmetrized pattern A + A^T and P is a threshold partial
// pivot permutation found during the left-looking Gilbert-Peierls
// factorization (diagonal-preferring, so the numerically-symmetric MNA
// matrices keep their fill close to the symbolic prediction).
//
// The expensive work — ordering, depth-first symbolic reach, pivot search —
// is done ONCE in factor(); refactor() then re-runs only the numeric
// triangular solves over the frozen pattern with the recorded pivot
// sequence, which is what every Newton iteration of a transient hits.
// A reused pivot that fails the threshold test (or the pattern changing
// under the factorization, SparseMatrix::patternStamp) transparently falls
// back to a fresh full factorization, so robustness matches factor().

#include <cstdint>
#include <vector>

#include "numeric/sparse.hpp"

namespace phlogon::num {

/// Fill-reducing elimination order of the symmetrized pattern A + A^T by
/// classic minimum degree (greedy, elimination-graph update, smallest-index
/// tie break — deterministic).  Exposed for tests and diagnostics.
std::vector<std::size_t> minDegreeOrder(const SparseMatrix& a);

/// Sparse LU factorization with pattern + pivot-order reuse (see file
/// comment).  Not internally synchronized: concurrent solveInto calls on one
/// instance need external locking (matches the single-threaded use of
/// LuFactor throughout the solver engine).
class SparseLu {
public:
    SparseLu() = default;

    /// Full factorization: fill-reducing order + symbolic + numeric with
    /// threshold partial pivoting.  `pivotRel` is the diagonal-preference
    /// threshold (pick the diagonal when within pivotRel of the column max).
    /// Returns false — leaving the object invalid — when `a` is non-square,
    /// empty, pattern-unfrozen, or numerically singular.
    bool factor(const SparseMatrix& a, double pivotRel = 1e-3);

    /// Numeric-only refactorization reusing the recorded pattern and pivot
    /// sequence.  Falls back to factor() when the pattern changed or a
    /// reused pivot degrades past the threshold.  Returns false only when
    /// the fallback full factorization also fails.
    bool refactor(const SparseMatrix& a, double pivotRel = 1e-3);

    bool valid() const { return valid_; }
    std::size_t size() const { return n_; }

    /// Nonzeros of L + U including both diagonals (the fill-in measure).
    std::size_t factorNnz() const { return valid_ ? li_.size() + ui_.size() + 2 * n_ : 0; }
    /// Cumulative full factorizations performed by this object.
    std::size_t fullFactorCount() const { return fullFactors_; }
    /// Cumulative numeric-only refactorizations (symbolic reuse hits).
    std::size_t refactorCount() const { return refactors_; }

    /// Solve A x = b into caller-owned storage (resized; must not alias b).
    void solveInto(const Vec& b, Vec& x) const;

private:
    bool fullFactor(const SparseMatrix& a, double pivotRel);
    bool numericRefactor(const SparseMatrix& a, double pivotRel);
    void buildRefactorMap(const SparseMatrix& a);

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::size_t n_ = 0;
    bool valid_ = false;
    std::uint64_t aPatternStamp_ = 0;  ///< pattern the factorization matches
    std::size_t fullFactors_ = 0;
    std::size_t refactors_ = 0;

    std::vector<std::size_t> q_;     ///< column preorder: pivot col k is A col q_[k]
    std::vector<std::size_t> pinv_;  ///< original row -> pivot position
    std::vector<std::size_t> perm_;  ///< pivot position -> original row

    // L (unit diagonal implicit) and U (diagonal in udiag_), both CSC in
    // pivot space; U columns sorted ascending for the refactor sweep.
    std::vector<std::size_t> lp_, li_;
    std::vector<double> lx_;
    std::vector<std::size_t> up_, ui_;
    std::vector<double> ux_;
    std::vector<double> udiag_;

    // Refactor map: per pivot column k, the entries of A(:, q_[k]) as
    // (pivot-space row, index into a.values()).
    std::vector<std::size_t> acolPtr_, acolRow_, acolVpos_;

    mutable Vec work_;  ///< triangular-solve scratch (no alloc when warm)
};

}  // namespace phlogon::num
