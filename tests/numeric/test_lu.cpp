#include "numeric/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace phlogon::num {
namespace {

TEST(Lu, SolvesKnownSystem) {
    Matrix a{{2, 1}, {1, 3}};
    auto f = LuFactor::factor(a);
    ASSERT_TRUE(f.has_value());
    const Vec x = f->solve(Vec{3, 5});
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, RejectsSingular) {
    Matrix a{{1, 2}, {2, 4}};
    EXPECT_FALSE(LuFactor::factor(a).has_value());
}

TEST(Lu, RejectsEmptyAndNonSquare) {
    EXPECT_FALSE(LuFactor::factor(Matrix()).has_value());
    EXPECT_FALSE(LuFactor::factor(Matrix(2, 3)).has_value());
}

TEST(Lu, RefactorRejectsNonFiniteEntries) {
    // A NaN or inf anywhere makes the matrix unfactorable, whatever the
    // pivot scale says.
    const Matrix small{{2, 1}, {1, 3}};
    Matrix big(5, 5);
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 5; ++c) big(r, c) = r == c ? 4.0 : 1.0 / (1.0 + r + c);
    for (const Matrix& a : {small, big}) {
        ASSERT_TRUE(LuFactor::factor(a).has_value());
        for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
            for (std::size_t r = 0; r < a.rows(); ++r)
                for (std::size_t c = 0; c < a.cols(); ++c) {
                    Matrix m = a;
                    m(r, c) = bad;
                    EXPECT_FALSE(LuFactor::factor(m).has_value())
                        << bad << " at (" << r << ", " << c << ")";
                    LuFactor lu;
                    EXPECT_FALSE(lu.refactor(m));
                    EXPECT_FALSE(lu.valid());
                }
        }
    }
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
    Matrix a{{0, 1}, {1, 0}};
    auto f = LuFactor::factor(a);
    ASSERT_TRUE(f.has_value());
    const Vec x = f->solve(Vec{2, 3});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SolveTransposedMatchesExplicitTranspose) {
    std::mt19937 rng(42);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 + static_cast<std::size_t>(trial % 7);
        Matrix a(n, n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c) a(r, c) = dist(rng);
            a(r, r) += 3.0;  // make well conditioned
        }
        Vec b(n);
        for (double& v : b) v = dist(rng);
        auto f = LuFactor::factor(a);
        ASSERT_TRUE(f.has_value());
        const Vec x1 = f->solveTransposed(b);
        auto ft = LuFactor::factor(a.transposed());
        ASSERT_TRUE(ft.has_value());
        const Vec x2 = ft->solve(b);
        for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
    }
}

TEST(Lu, ResidualSmallOnRandomSystems) {
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 9);
        Matrix a(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c) a(r, c) = dist(rng) + (r == c ? 2.0 : 0.0);
        Vec b(n);
        for (double& v : b) v = dist(rng);
        auto f = LuFactor::factor(a);
        ASSERT_TRUE(f.has_value());
        const Vec x = f->solve(b);
        const Vec r = a * x - b;
        EXPECT_LT(normInf(r), 1e-11);
    }
}

TEST(Lu, SolveMatrixReproducesInverse) {
    Matrix a{{4, 1}, {2, 3}};
    auto f = LuFactor::factor(a);
    ASSERT_TRUE(f.has_value());
    Matrix inv;
    f->solveMatrixInto(Matrix::identity(2), inv);
    const Matrix prod = a * inv;
    EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
    EXPECT_NEAR(prod(1, 0), 0.0, 1e-12);
    EXPECT_NEAR(prod(1, 1), 1.0, 1e-12);
}

TEST(Lu, RefactorReusesStorageAndMatchesFactor) {
    LuFactor f;
    EXPECT_FALSE(f.valid());
    Matrix a{{2, 1}, {1, 3}};
    ASSERT_TRUE(f.refactor(a));
    EXPECT_TRUE(f.valid());
    Vec x;
    f.solveInto(Vec{3, 5}, x);
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);

    // Refactor a different same-size matrix in place.
    Matrix b{{0, 1}, {1, 0}};
    ASSERT_TRUE(f.refactor(b));
    f.solveInto(Vec{2, 3}, x);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);

    // A singular refactor invalidates the object.
    Matrix s{{1, 2}, {2, 4}};
    EXPECT_FALSE(f.refactor(s));
    EXPECT_FALSE(f.valid());
}

TEST(Lu, SolveIntoMatchesSolveBitwise) {
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 6);
        Matrix a(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c) a(r, c) = dist(rng) + (r == c ? 3.0 : 0.0);
        Vec b(n);
        for (double& v : b) v = dist(rng);
        auto f = LuFactor::factor(a);
        ASSERT_TRUE(f.has_value());
        const Vec x1 = f->solve(b);
        Vec x2;
        f->solveInto(b, x2);
        for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(x1[i], x2[i]);
    }
}

TEST(Lu, SolveMatrixIntoMatchesColumnwiseSolves) {
    // The blocked row-sweep multi-RHS path must agree with one triangular
    // solve per column to the last bit (identical per-element op chains).
    std::mt19937 rng(23);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 7);
        const std::size_t m = n + 1;  // PSS sensitivity shape
        Matrix a(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c) a(r, c) = dist(rng) + (r == c ? 3.0 : 0.0);
        Matrix b(n, m);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < m; ++c) b(r, c) = dist(rng);
        auto f = LuFactor::factor(a);
        ASSERT_TRUE(f.has_value());
        Matrix x;
        f->solveMatrixInto(b, x);
        ASSERT_EQ(x.rows(), n);
        ASSERT_EQ(x.cols(), m);
        Vec col(n), sol;
        for (std::size_t c = 0; c < m; ++c) {
            for (std::size_t r = 0; r < n; ++r) col[r] = b(r, c);
            f->solveInto(col, sol);
            for (std::size_t r = 0; r < n; ++r) EXPECT_DOUBLE_EQ(x(r, c), sol[r]);
        }
    }
}

TEST(Eigen, InverseIterationFindsNearestEigenpair) {
    // Symmetric matrix with eigenvalues 1 and 3.
    Matrix a{{2, 1}, {1, 2}};
    const auto p1 = inverseIteration(a, 0.9);
    ASSERT_TRUE(p1.has_value());
    EXPECT_NEAR(p1->first, 1.0, 1e-8);
    const auto p3 = inverseIteration(a, 3.2);
    ASSERT_TRUE(p3.has_value());
    EXPECT_NEAR(p3->first, 3.0, 1e-8);
    // Eigenvector of eigenvalue 3 is (1,1)/sqrt(2).
    EXPECT_NEAR(std::abs(p3->second[0]), std::abs(p3->second[1]), 1e-8);
}

TEST(Eigen, InverseIterationHandlesExactShift) {
    Matrix a{{2, 0}, {0, 5}};
    const auto p = inverseIteration(a, 5.0);  // exactly singular shift: nudged internally
    ASSERT_TRUE(p.has_value());
    EXPECT_NEAR(p->first, 5.0, 1e-6);
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(LuDeathTest, SolveIntoRejectsAliasedOutput) {
    // solveInto seeds x with the permuted b before substituting in place, so
    // an aliased output would silently corrupt the solve; the debug assert
    // turns that into an immediate failure.
    auto f = LuFactor::factor(Matrix{{2, 1}, {1, 3}});
    ASSERT_TRUE(f.has_value());
    Vec b{3, 5};
    EXPECT_DEATH(f->solveInto(b, b), "");
}

TEST(LuDeathTest, SolveMatrixIntoRejectsAliasedOutput) {
    auto f = LuFactor::factor(Matrix{{2, 1}, {1, 3}});
    ASSERT_TRUE(f.has_value());
    Matrix b{{1, 0}, {0, 1}};
    EXPECT_DEATH(f->solveMatrixInto(b, b), "");
}
#endif

TEST(Eigen, IterationsRejectEmptyAndNonSquare) {
    EXPECT_FALSE(inverseIteration(Matrix(), 0.0).has_value());
    EXPECT_FALSE(inverseIteration(Matrix(2, 3), 0.0).has_value());
}

TEST(Eigen, InverseIterationZeroMatrixTakesNudgePath) {
    // The zero matrix is singular at shift 0; the internal shift nudge makes
    // (A - eps I) factorable and the iteration settles on eigenvalue 0.
    const auto p = inverseIteration(Matrix(2, 2), 0.0);
    ASSERT_TRUE(p.has_value());
    EXPECT_NEAR(p->first, 0.0, 1e-8);
}

TEST(Eigen, InverseIterationNullSpace) {
    // Singular matrix: eigenvalue 0 with eigenvector (1,-1)/sqrt(2).
    Matrix a{{1, 1}, {1, 1}};
    const auto p = inverseIteration(a, 0.0);
    ASSERT_TRUE(p.has_value());
    EXPECT_NEAR(p->first, 0.0, 1e-8);
    EXPECT_NEAR(p->second[0] + p->second[1], 0.0, 1e-7);
}

}  // namespace
}  // namespace phlogon::num
