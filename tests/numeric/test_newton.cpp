#include "numeric/newton.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/newton_oracle.hpp"

namespace phlogon::num {
namespace {

using testutil::fdJacobian;
using testutil::JacobianFn;
using testutil::ResidualFn;

TEST(Newton, SolvesScalarQuadratic) {
    // x^2 - 4 = 0, starting near the positive root.
    const ResidualFn f = [](const Vec& x) { return Vec{x[0] * x[0] - 4.0}; };
    const JacobianFn j = [](const Vec& x) { return Matrix{{2.0 * x[0]}}; };
    Vec x{3.0};
    const NewtonResult r = testutil::newtonSolve(f, j, x);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(x[0], 2.0, 1e-8);
    EXPECT_LT(r.iterations, 12);
}

TEST(Newton, Solves2dNonlinearSystem) {
    // x^2 + y^2 = 1, y = x  ->  x = y = 1/sqrt(2).
    const ResidualFn f = [](const Vec& v) {
        return Vec{v[0] * v[0] + v[1] * v[1] - 1.0, v[1] - v[0]};
    };
    const JacobianFn j = [](const Vec& v) {
        return Matrix{{2.0 * v[0], 2.0 * v[1]}, {-1.0, 1.0}};
    };
    Vec x{1.0, 0.5};
    const NewtonResult r = testutil::newtonSolve(f, j, x);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(x[0], 1.0 / std::sqrt(2.0), 1e-8);
    EXPECT_NEAR(x[1], 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(Newton, QuadraticConvergenceIsFast) {
    const ResidualFn f = [](const Vec& x) { return Vec{std::exp(x[0]) - 2.0}; };
    const JacobianFn j = [](const Vec& x) { return Matrix{{std::exp(x[0])}}; };
    Vec x{0.0};
    const NewtonResult r = testutil::newtonSolve(f, j, x);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(x[0], std::log(2.0), 1e-10);
    EXPECT_LE(r.iterations, 8);
}

TEST(Newton, DampingRescuesOvershoot) {
    // atan has a famously divergent undamped Newton from |x0| > ~1.39.
    const ResidualFn f = [](const Vec& x) { return Vec{std::atan(x[0])}; };
    const JacobianFn j = [](const Vec& x) { return Matrix{{1.0 / (1.0 + x[0] * x[0])}}; };
    Vec x{3.0};
    const NewtonResult r = testutil::newtonSolve(f, j, x);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(x[0], 0.0, 1e-8);
}

TEST(NewtonSolve, JacobianFollowsLastResidualPoint) {
    // atan from x0 = 3: the full Newton step overshoots and the line search
    // rejects trials before it accepts one.  Every jac(x) must get, bit for
    // bit, the x of the latest f(x), on both linear backends, and the solve
    // must end at the point of its latest f(x).
    std::vector<Vec> fPoints;
    std::size_t jacCalls = 0;
    const auto checkJac = [&](const Vec& x) {
        ++jacCalls;
        ASSERT_FALSE(fPoints.empty());
        EXPECT_EQ(x, fPoints.back()) << "jacobian call " << jacCalls;
    };
    const ResidualInPlaceFn f = [&](const Vec& x, Vec& out) {
        fPoints.push_back(x);
        out.assign(1, std::atan(x[0]));
    };
    const JacobianInPlaceFn jDense = [&](const Vec& x, Matrix& out) {
        checkJac(x);
        out = Matrix{{1.0 / (1.0 + x[0] * x[0])}};
    };
    const SparseJacobianInPlaceFn jSparse = [&](const Vec& x, SparseMatrix& out) {
        checkJac(x);
        if (out.rows() != 1) out.reset(1, 1);
        out.beginAssembly();
        out.add(0, 0, 1.0 / (1.0 + x[0] * x[0]));
        out.endAssembly();
    };
    for (const bool sparse : {false, true}) {
        fPoints.clear();
        jacCalls = 0;
        NewtonWorkspace ws;
        Vec x{3.0};
        const NewtonResult r = sparse ? newtonSolveSparse(f, jSparse, x, ws)
                                      : newtonSolve(f, jDense, x, ws);
        EXPECT_TRUE(r.converged);
        EXPECT_EQ(jacCalls, r.counters.jacEvals);
        // Rejected trials: more residual calls than one per Jacobian plus
        // the initial point.
        EXPECT_GT(fPoints.size(), jacCalls + 1);
        EXPECT_EQ(x, fPoints.back());
    }
}

TEST(Newton, ReportsSingularJacobian) {
    const ResidualFn f = [](const Vec& x) { return Vec{x[0] * x[0] + 1.0}; };
    const JacobianFn j = [](const Vec&) { return Matrix{{0.0}}; };
    Vec x{1.0};
    const NewtonResult r = testutil::newtonSolve(f, j, x);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.message, "singular Jacobian");
}

TEST(Newton, MaxIterationsReported) {
    // No real root: x^2 + 1 = 0.
    const ResidualFn f = [](const Vec& x) { return Vec{x[0] * x[0] + 1.0}; };
    const JacobianFn j = [](const Vec& x) { return Matrix{{2.0 * x[0]}}; };
    Vec x{1.0};
    NewtonOptions opt;
    opt.maxIter = 15;
    const NewtonResult r = testutil::newtonSolve(f, j, x, opt);
    EXPECT_FALSE(r.converged);
}

TEST(Newton, MaxStepClampRespected) {
    const ResidualFn f = [](const Vec& x) { return Vec{x[0] - 100.0}; };
    const JacobianFn j = [](const Vec&) { return Matrix{{1.0}}; };
    Vec x{0.0};
    NewtonOptions opt;
    opt.maxStep = 10.0;
    opt.maxIter = 30;
    const NewtonResult r = testutil::newtonSolve(f, j, x, opt);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(x[0], 100.0, 1e-8);
    EXPECT_GE(r.iterations, 10);  // clamped to <= 10 per step
}

TEST(Newton, AlreadyConvergedReturnsImmediately) {
    const ResidualFn f = [](const Vec& x) { return Vec{x[0]}; };
    const JacobianFn j = [](const Vec&) { return Matrix{{1.0}}; };
    Vec x{0.0};
    const NewtonResult r = testutil::newtonSolve(f, j, x);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 1);
}

TEST(Newton, DampingExhaustedFallbackIsCountedAndReported) {
    // A constant nonzero residual can never shrink: every iteration burns
    // the whole damping budget, accepts the most-damped step anyway, and
    // must say so distinctly in the message and the counters.
    const ResidualFn f = [](const Vec&) { return Vec{1.0}; };
    const JacobianFn j = [](const Vec&) { return Matrix{{1.0}}; };
    Vec x{0.0};
    NewtonOptions opt;
    opt.maxIter = 3;
    opt.maxDampings = 2;
    const NewtonResult r = testutil::newtonSolve(f, j, x, opt);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.counters.dampingEvents, 3u);  // one per iteration
    EXPECT_NE(r.message.find("damping exhausted"), std::string::npos) << r.message;
}

TEST(Newton, CleanFailureMessageHasNoDampingSuffix) {
    const ResidualFn f = [](const Vec& x) { return Vec{x[0] * x[0] + 1.0}; };
    const JacobianFn j = [](const Vec&) { return Matrix{{0.0}}; };
    Vec x{1.0};
    const NewtonResult r = testutil::newtonSolve(f, j, x);
    EXPECT_EQ(r.counters.dampingEvents, 0u);
    EXPECT_EQ(r.message, "singular Jacobian");
}

TEST(Newton, WorkspaceOverloadMatchesAllocatingOverload) {
    const auto resid = [](const Vec& v) {
        return Vec{v[0] * v[0] + v[1] * v[1] - 1.0, v[1] - v[0]};
    };
    const auto jacob = [](const Vec& v) {
        return Matrix{{2.0 * v[0], 2.0 * v[1]}, {-1.0, 1.0}};
    };
    Vec xa{1.0, 0.5};
    const NewtonResult ra = testutil::newtonSolve(ResidualFn(resid), JacobianFn(jacob), xa);

    const ResidualInPlaceFn fi = [&resid](const Vec& v, Vec& out) { out = resid(v); };
    const JacobianInPlaceFn ji = [&jacob](const Vec& v, Matrix& out) { out = jacob(v); };
    NewtonWorkspace ws;
    Vec xw{1.0, 0.5};
    const NewtonResult rw = newtonSolve(fi, ji, xw, ws);

    EXPECT_TRUE(ra.converged && rw.converged);
    EXPECT_EQ(ra.iterations, rw.iterations);
    EXPECT_DOUBLE_EQ(xa[0], xw[0]);
    EXPECT_DOUBLE_EQ(xa[1], xw[1]);
}

TEST(Newton, ChordReusesFactorizationAcrossSolves) {
    // Full Newton keeps no factorization across solves: a second solve
    // through the same workspace evaluates and factors its own Jacobian.
    // On this linear system each solve takes one Jacobian and one LU.
    int jacCalls = 0;
    const ResidualInPlaceFn f = [](const Vec& v, Vec& out) {
        out.resize(2);
        out[0] = 2.0 * v[0] + v[1] - 3.0;
        out[1] = v[0] + 3.0 * v[1] - 5.0;
    };
    const JacobianInPlaceFn j = [&jacCalls](const Vec&, Matrix& out) {
        ++jacCalls;
        out = Matrix{{2.0, 1.0}, {1.0, 3.0}};
    };
    NewtonWorkspace ws;
    Vec x{0.0, 0.0};
    const NewtonResult r1 = newtonSolve(f, j, x, ws);
    ASSERT_TRUE(r1.converged);
    EXPECT_EQ(jacCalls, 1);
    EXPECT_EQ(r1.counters.luFactorizations, 1u);

    Vec y{10.0, -7.0};
    const NewtonResult r2 = newtonSolve(f, j, y, ws);
    ASSERT_TRUE(r2.converged);
    EXPECT_EQ(jacCalls, 2);
    EXPECT_EQ(r2.counters.jacEvals, 1u);
    EXPECT_EQ(r2.counters.luFactorizations, 1u);
    EXPECT_NEAR(y[0], 0.8, 1e-9);
    EXPECT_NEAR(y[1], 1.4, 1e-9);
}

TEST(Newton, ChordConvergesOnNonlinearProblem) {
    // x^2 = 4 from 3: every iteration but the last (which only checks the
    // residual) refreshes the Jacobian, and the error squares from one
    // update to the next, e_{k+1} = e_k^2 / (2 x_k) exactly.
    Vec iterates;
    const ResidualInPlaceFn f = [](const Vec& v, Vec& out) {
        out.resize(1);
        out[0] = v[0] * v[0] - 4.0;
    };
    const JacobianInPlaceFn j = [&iterates](const Vec& v, Matrix& out) {
        iterates.push_back(v[0]);
        out.resize(1, 1);
        out(0, 0) = 2.0 * v[0];
    };
    NewtonWorkspace ws;
    Vec x{3.0};
    const NewtonResult r = newtonSolve(f, j, x, ws);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(x[0], 2.0, 1e-8);
    const std::size_t refreshes = static_cast<std::size_t>(r.iterations - 1);
    EXPECT_EQ(r.counters.jacEvals, refreshes);
    EXPECT_EQ(r.counters.luFactorizations, refreshes);
    ASSERT_EQ(iterates.size(), refreshes);
    iterates.push_back(x[0]);
    // Compare while the error is far above rounding (e_k > 1e-4).
    for (std::size_t k = 0; k + 1 < iterates.size() && iterates[k] - 2.0 > 1e-4; ++k) {
        const double e = iterates[k] - 2.0, eNext = iterates[k + 1] - 2.0;
        EXPECT_NEAR(eNext * 2.0 * iterates[k] / (e * e), 1.0, 1e-6) << "k=" << k;
    }
}

TEST(Newton, InvalidateJacobianForcesRefresh) {
    // A workspace reused on a changed system (slope 1, then 4) carries no
    // stale Jacobian: the second solve lands on the new root in one update.
    double slope = 1.0;
    const ResidualInPlaceFn f = [&slope](const Vec& v, Vec& out) {
        out.resize(1);
        out[0] = slope * v[0] - 1.0;
    };
    const JacobianInPlaceFn j = [&slope](const Vec&, Matrix& out) {
        out.resize(1, 1);
        out(0, 0) = slope;
    };
    NewtonWorkspace ws;
    Vec x{5.0};
    ASSERT_TRUE(newtonSolve(f, j, x, ws).converged);
    EXPECT_EQ(x[0], 1.0);
    slope = 4.0;
    Vec y{5.0};
    const NewtonResult r = newtonSolve(f, j, y, ws);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 2);
    EXPECT_EQ(y[0], 0.25);
}

TEST(FdJacobian, MatchesAnalyticOnSmoothSystem) {
    const ResidualFn f = [](const Vec& v) {
        return Vec{std::sin(v[0]) + v[1] * v[1], v[0] * v[1]};
    };
    const Vec x{0.3, -0.7};
    const Matrix j = fdJacobian(f, x);
    EXPECT_NEAR(j(0, 0), std::cos(0.3), 1e-7);
    EXPECT_NEAR(j(0, 1), -1.4, 1e-7);
    EXPECT_NEAR(j(1, 0), -0.7, 1e-7);
    EXPECT_NEAR(j(1, 1), 0.3, 1e-7);
}

TEST(FdJacobian, HandlesRectangularOutput) {
    const ResidualFn f = [](const Vec& v) { return Vec{v[0], 2.0 * v[0], 3.0 * v[0]}; };
    const Matrix j = fdJacobian(f, Vec{1.0});
    ASSERT_EQ(j.rows(), 3u);
    ASSERT_EQ(j.cols(), 1u);
    EXPECT_NEAR(j(2, 0), 3.0, 1e-8);
}

}  // namespace
}  // namespace phlogon::num
