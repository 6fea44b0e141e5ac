#pragma once
// Sparse matrix for MNA assembly: COO accumulation that freezes into CSR.
//
// Real MNA Jacobians are >90% structurally zero and their pattern is fixed
// by the circuit topology, not by the operating point: every Device::eval
// stamps the same (row, col) slots each call.  SparseMatrix exploits that
// with a two-phase lifecycle:
//
//   1. building: add(r, c, v) appends (r, c, v) triplets.  endAssembly()
//      sorts, merges duplicates and freezes the pattern into CSR arrays.
//   2. frozen: beginAssembly() just zeroes the value array; add(r, c, v)
//      binary-searches the row's column slice and accumulates in place —
//      no allocation, no sorting, cache-friendly row-major sweeps.
//
// A stamp that misses the frozen pattern (a device appearing mid-run, a
// gmin diagonal added by an analysis) is not an error: it lands in an
// overflow triplet list and the next endAssembly() merges it, growing the
// pattern and bumping patternStamp() so downstream factorizations know
// their symbolic analysis is stale.  Adds always record the pattern slot
// even when the value is 0.0, so structurally-present-but-numerically-zero
// stamps (a switched-off device, a gmin shift scheduled to reach zero)
// keep the pattern — and with it the cached symbolic factorization —
// stable across the whole analysis.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "numeric/matrix.hpp"

namespace phlogon::num {

/// Row-major CSR sparse matrix with a freezable pattern (see file comment).
class SparseMatrix {
public:
    SparseMatrix() = default;
    SparseMatrix(std::size_t rows, std::size_t cols) { reset(rows, cols); }

    /// Drop pattern and values; the next assembly rebuilds from scratch.
    void reset(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }
    bool patternFrozen() const { return frozen_; }

    /// Monotone counter bumped whenever the pattern changes (first freeze,
    /// overflow merge, reset).  Factorizations record it to detect staleness.
    std::uint64_t patternStamp() const { return patternStamp_; }

    /// Start a fresh accumulation: zero values (frozen) or clear triplets.
    void beginAssembly();
    /// Accumulate v at (r, c).  Frozen pattern hit: in-place add.  Miss (or
    /// still building): triplet append, merged by the next endAssembly().
    void add(std::size_t r, std::size_t c, double v);
    /// Freeze/extend the pattern.  Idempotent when nothing is pending.
    void endAssembly();

    /// Structural nonzeros (frozen pattern only; 0 while building).
    std::size_t nnz() const { return colIdx_.size(); }

    // CSR access (valid once frozen).
    const std::vector<std::size_t>& rowPtr() const { return rowPtr_; }
    const std::vector<std::size_t>& colIdx() const { return colIdx_; }
    const std::vector<double>& values() const { return val_; }

    /// Entry lookup; 0.0 when (r, c) is outside the pattern.
    double at(std::size_t r, std::size_t c) const;

    Matrix toDense() const;
    /// Build a frozen SparseMatrix from a dense one, keeping entries with
    /// |a(r,c)| > dropTol (0.0 keeps exact nonzeros only).
    static SparseMatrix fromDense(const Matrix& a, double dropTol = 0.0);

private:
    struct Triplet {
        std::size_t r, c;
        double v;
    };

    /// Frozen-pattern slot of (r, c) or npos when absent.
    std::size_t findSlot(std::size_t r, std::size_t c) const;
    void mergePending();

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::size_t rows_ = 0, cols_ = 0;
    bool frozen_ = false;
    std::uint64_t patternStamp_ = 0;
    std::vector<Triplet> pending_;  ///< building triplets / frozen overflow
    std::vector<std::size_t> rowPtr_, colIdx_;
    std::vector<double> val_;
};

}  // namespace phlogon::num
