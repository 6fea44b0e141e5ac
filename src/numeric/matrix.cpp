#include "numeric/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace phlogon::num {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
    rows_ = init.size();
    cols_ = rows_ ? init.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
        if (row.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer list");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
}

Matrix& Matrix::operator+=(const Matrix& o) {
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
}

Matrix& Matrix::operator*=(double s) {
    for (double& v : data_) v *= s;
    return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
    assert(a.cols() == b.rows());
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            if (aik == 0.0) continue;
            for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
        }
    return c;
}

Vec operator*(const Matrix& a, const Vec& x) {
    assert(a.cols() == x.size());
    Vec y(a.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
        y[i] = s;
    }
    return y;
}

double Matrix::normMax() const {
    double m = 0.0;
    for (double v : data_) m = std::max(m, std::abs(v));
    return m;
}

Vec operator+(const Vec& a, const Vec& b) {
    assert(a.size() == b.size());
    Vec c(a);
    for (std::size_t i = 0; i < c.size(); ++i) c[i] += b[i];
    return c;
}

Vec operator-(const Vec& a, const Vec& b) {
    assert(a.size() == b.size());
    Vec c(a);
    for (std::size_t i = 0; i < c.size(); ++i) c[i] -= b[i];
    return c;
}

Vec operator*(double s, const Vec& a) {
    Vec c(a);
    for (double& v : c) v *= s;
    return c;
}

Vec& operator+=(Vec& a, const Vec& b) {
    assert(a.size() == b.size());
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
    return a;
}

Vec& operator-=(Vec& a, const Vec& b) {
    assert(a.size() == b.size());
    for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
    return a;
}

Vec& operator*=(Vec& a, double s) {
    for (double& v : a) v *= s;
    return a;
}

void axpy(double s, const Vec& b, Vec& a) {
    assert(a.size() == b.size());
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

double dot(const Vec& a, const Vec& b) {
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

double normInf(const Vec& a) {
    double m = 0.0;
    for (double v : a) m = std::max(m, std::abs(v));
    return m;
}

double norm2(const Vec& a) { return std::sqrt(dot(a, a)); }

void multTransposeInto(const Matrix& a, const Vec& x, Vec& y) {
    assert(a.rows() == x.size());
    assert(&x != &y);
    y.assign(a.cols(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double xi = x[i];
        if (xi == 0.0) continue;
        for (std::size_t j = 0; j < a.cols(); ++j) y[j] += a(i, j) * xi;
    }
}

Vec linspace(double a, double b, std::size_t n) {
    Vec v(n);
    if (n == 1) {
        v[0] = a;
        return v;
    }
    const double h = (b - a) / static_cast<double>(n - 1);
    for (std::size_t i = 0; i < n; ++i) v[i] = a + h * static_cast<double>(i);
    v.back() = b;
    return v;
}

}  // namespace phlogon::num
