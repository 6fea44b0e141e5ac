#pragma once
// Dense matrix / vector utilities used throughout the simulator.
//
// Circuit systems in this project are small (tens of unknowns), so a dense
// row-major matrix with partial-pivot LU is both simpler and faster than a
// sparse solver would be at this scale.

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace phlogon::num {

using Vec = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    /// Build from nested initializer list: Matrix{{1,2},{3,4}}.
    Matrix(std::initializer_list<std::initializer_list<double>> init);

    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return data_.empty(); }

    double& operator()(std::size_t r, std::size_t c) {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }

    void fill(double v) { data_.assign(data_.size(), v); }
    void resize(std::size_t rows, std::size_t cols, double fillv = 0.0) {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, fillv);
    }

    Matrix transposed() const;

    Matrix& operator+=(const Matrix& o);
    Matrix& operator-=(const Matrix& o);
    Matrix& operator*=(double s);

    friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
    friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
    friend Matrix operator*(Matrix a, double s) { return a *= s; }
    friend Matrix operator*(double s, Matrix a) { return a *= s; }

    /// Matrix-matrix product.
    friend Matrix operator*(const Matrix& a, const Matrix& b);
    /// Matrix-vector product.
    friend Vec operator*(const Matrix& a, const Vec& x);

    /// Max-abs entry.
    double normMax() const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

// ---- Vector helpers -------------------------------------------------------

Vec operator+(const Vec& a, const Vec& b);
Vec operator-(const Vec& a, const Vec& b);
Vec operator*(double s, const Vec& a);
Vec& operator+=(Vec& a, const Vec& b);
Vec& operator-=(Vec& a, const Vec& b);
Vec& operator*=(Vec& a, double s);

/// Add s*b into a (axpy).
void axpy(double s, const Vec& b, Vec& a);

double dot(const Vec& a, const Vec& b);
double normInf(const Vec& a);
double norm2(const Vec& a);

/// y = A^T x into caller-owned storage (resized; must not alias x).
void multTransposeInto(const Matrix& a, const Vec& x, Vec& y);

/// Uniformly spaced grid of n points from a to b inclusive.
Vec linspace(double a, double b, std::size_t n);

}  // namespace phlogon::num

namespace phlogon {
// Vec is std::vector<double>, so argument-dependent lookup cannot find the
// operators above from sibling namespaces; re-export them at the project
// root so every phlogon::* namespace sees them via ordinary lookup.
using num::operator+;
using num::operator-;
using num::operator*;
using num::operator+=;
using num::operator-=;
using num::operator*=;
}  // namespace phlogon
