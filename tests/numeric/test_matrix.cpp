#include "numeric/matrix.hpp"

#include <gtest/gtest.h>

namespace phlogon::num {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
    Matrix m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(Matrix, SizedConstructorFills) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
}

TEST(Matrix, InitializerList) {
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
    const Matrix i = Matrix::identity(3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, Transposed) {
    Matrix m{{1, 2, 3}, {4, 5, 6}};
    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, AddSubtractScale) {
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{4, 3}, {2, 1}};
    const Matrix s = a + b;
    EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
    EXPECT_DOUBLE_EQ(s(1, 1), 5.0);
    const Matrix d = a - b;
    EXPECT_DOUBLE_EQ(d(0, 0), -3.0);
    const Matrix sc = 2.0 * a;
    EXPECT_DOUBLE_EQ(sc(1, 0), 6.0);
}

TEST(Matrix, MatrixMatrixProduct) {
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{0, 1}, {1, 0}};
    const Matrix p = a * b;
    EXPECT_DOUBLE_EQ(p(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(p(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(p(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(p(1, 1), 3.0);
}

TEST(Matrix, MatrixVectorProduct) {
    Matrix a{{1, 2}, {3, 4}};
    const Vec y = a * Vec{1.0, 1.0};
    EXPECT_DOUBLE_EQ(y[0], 3.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MultTranspose) {
    Matrix a{{1, 2}, {3, 4}};
    Vec y{9.0, 9.0, 9.0};  // stale storage is overwritten, not accumulated
    multTransposeInto(a, Vec{1.0, 1.0}, y);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[0], 4.0);
    EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Matrix, Norms) {
    Matrix a{{3, 0}, {0, 4}};
    EXPECT_DOUBLE_EQ(a.normMax(), 4.0);
}

TEST(Matrix, ResizeZeroes) {
    Matrix a{{1, 2}, {3, 4}};
    a.resize(3, 3);
    EXPECT_EQ(a.rows(), 3u);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(a(r, c), 0.0);
}

TEST(VecOps, Arithmetic) {
    Vec a{1, 2, 3}, b{3, 2, 1};
    const Vec s = a + b;
    EXPECT_DOUBLE_EQ(s[0], 4.0);
    const Vec d = a - b;
    EXPECT_DOUBLE_EQ(d[0], -2.0);
    const Vec m = 2.0 * a;
    EXPECT_DOUBLE_EQ(m[2], 6.0);
    a += b;
    EXPECT_DOUBLE_EQ(a[1], 4.0);
    a -= b;
    EXPECT_DOUBLE_EQ(a[1], 2.0);
    a *= 3.0;
    EXPECT_DOUBLE_EQ(a[0], 3.0);
}

TEST(VecOps, AxpyDotNorms) {
    Vec a{1, 2, 2};
    Vec b{1, 0, 0};
    axpy(2.0, b, a);
    EXPECT_DOUBLE_EQ(a[0], 3.0);
    EXPECT_DOUBLE_EQ(dot(Vec{1, 2}, Vec{3, 4}), 11.0);
    EXPECT_DOUBLE_EQ(normInf(Vec{-5, 2}), 5.0);
    EXPECT_DOUBLE_EQ(norm2(Vec{3, 4}), 5.0);
}

TEST(VecOps, Linspace) {
    const Vec v = linspace(0.0, 1.0, 5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    EXPECT_DOUBLE_EQ(v[2], 0.5);
    EXPECT_DOUBLE_EQ(v[4], 1.0);
}

TEST(VecOps, LinspaceSinglePoint) {
    const Vec v = linspace(2.0, 5.0, 1);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_DOUBLE_EQ(v[0], 2.0);
}

}  // namespace
}  // namespace phlogon::num
