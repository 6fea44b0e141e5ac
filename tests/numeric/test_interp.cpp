#include "numeric/interp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "numeric/lu.hpp"

namespace phlogon::num {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

TEST(Wrap01, BasicCases) {
    EXPECT_DOUBLE_EQ(wrap01(0.25), 0.25);
    EXPECT_DOUBLE_EQ(wrap01(1.25), 0.25);
    EXPECT_DOUBLE_EQ(wrap01(-0.25), 0.75);
    EXPECT_DOUBLE_EQ(wrap01(3.0), 0.0);
    EXPECT_DOUBLE_EQ(wrap01(-2.0), 0.0);
    EXPECT_GE(wrap01(-1e-18), 0.0);
    EXPECT_LT(wrap01(-1e-18), 1.0);
}

TEST(PeriodicLinear, HitsSamplesExactly) {
    const Vec s{0.0, 1.0, 0.0, -1.0};
    PeriodicLinear p(s);
    for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_DOUBLE_EQ(p(static_cast<double>(i) / 4.0), s[i]);
}

TEST(PeriodicLinear, InterpolatesAndWraps) {
    PeriodicLinear p(Vec{0.0, 1.0});
    EXPECT_DOUBLE_EQ(p(0.25), 0.5);
    EXPECT_DOUBLE_EQ(p(0.75), 0.5);  // wraps from 1.0 back to 0.0
    EXPECT_DOUBLE_EQ(p(1.25), 0.5);
    EXPECT_DOUBLE_EQ(p(-0.75), 0.5);
}

TEST(PeriodicCubicSpline, RequiresThreeSamples) {
    EXPECT_THROW(PeriodicCubicSpline(Vec{1.0, 2.0}), std::invalid_argument);
}

TEST(PeriodicCubicSpline, HitsKnots) {
    const Vec s{0.0, 1.0, 0.5, -0.5, -1.0};
    PeriodicCubicSpline p(s);
    for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_NEAR(p(static_cast<double>(i) / s.size()), s[i], 1e-12);
}

TEST(PeriodicCubicSpline, ReproducesSmoothPeriodicFunction) {
    const std::size_t n = 32;
    Vec s(n);
    for (std::size_t i = 0; i < n; ++i) s[i] = std::sin(kTwoPi * i / n);
    PeriodicCubicSpline p(s);
    for (double t = 0.0; t < 1.0; t += 0.013)
        EXPECT_NEAR(p(t), std::sin(kTwoPi * t), 2e-5) << "t=" << t;
}

TEST(PeriodicCubicSpline, DerivativeMatchesAnalytic) {
    const std::size_t n = 64;
    Vec s(n);
    for (std::size_t i = 0; i < n; ++i) s[i] = std::cos(kTwoPi * i / n);
    PeriodicCubicSpline p(s);
    for (double t = 0.05; t < 1.0; t += 0.1)
        EXPECT_NEAR(p.derivative(t), -kTwoPi * std::sin(kTwoPi * t), 3e-3) << "t=" << t;
}

TEST(PeriodicCubicSpline, ContinuousAcrossPeriodBoundary) {
    Vec s{1.0, 0.2, -0.7, 0.4, 0.9, -0.1};
    PeriodicCubicSpline p(s);
    const double eps = 1e-9;
    EXPECT_NEAR(p(1.0 - eps), p(0.0 + eps), 1e-6);
    EXPECT_NEAR(p.derivative(1.0 - eps), p.derivative(0.0 + eps), 1e-4);
}

TEST(ResampleUniform, IdentityOnMatchingGrid) {
    const Vec t{0.0, 0.25, 0.5, 0.75, 1.0};
    const Vec x{1.0, 2.0, 3.0, 4.0, 5.0};
    const Vec u = resampleUniform(t, x, 0.0, 1.0, 4);
    ASSERT_EQ(u.size(), 4u);
    EXPECT_NEAR(u[0], 1.0, 1e-12);
    EXPECT_NEAR(u[1], 2.0, 1e-12);
    EXPECT_NEAR(u[3], 4.0, 1e-12);
}

TEST(ResampleUniform, LinearInterpolationBetweenPoints) {
    const Vec t{0.0, 1.0};
    const Vec x{0.0, 10.0};
    const Vec u = resampleUniform(t, x, 0.0, 1.0, 10);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(u[i], static_cast<double>(i), 1e-10);
}

TEST(ResampleUniform, ClampsOutsideRange) {
    const Vec t{0.2, 0.8};
    const Vec x{5.0, 7.0};
    const Vec u = resampleUniform(t, x, 0.0, 1.0, 4);  // samples at 0, .25, .5, .75
    EXPECT_DOUBLE_EQ(u[0], 5.0);  // before first point -> clamped
    EXPECT_NEAR(u[2], 6.0, 1e-12);
}

TEST(ResampleUniform, NonUniformSourceGrid) {
    const Vec t{0.0, 0.1, 0.9, 1.0};
    const Vec x{0.0, 1.0, 9.0, 10.0};  // globally linear y = 10 t
    const Vec u = resampleUniform(t, x, 0.0, 1.0, 5);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(u[i], 2.0 * i, 1e-10);
}

TEST(ResampleUniform, BoundaryKnots) {
    // Sample points landing exactly on t.front(), interior knots, and the
    // value just below t.back() — the regions the (collapsed) k-advance loop
    // must position correctly.
    const Vec t{0.0, 0.25, 0.5, 0.75, 1.0};
    const Vec x{0.0, 2.5, 5.0, 7.5, 10.0};
    const Vec u = resampleUniform(t, x, 0.0, 1.0, 4);  // ti = 0, .25, .5, .75
    EXPECT_DOUBLE_EQ(u[0], 0.0);   // ti == t.front(): clamped branch
    EXPECT_NEAR(u[1], 2.5, 1e-12);  // ti exactly on an interior knot
    EXPECT_NEAR(u[2], 5.0, 1e-12);
    EXPECT_NEAR(u[3], 7.5, 1e-12);
}

TEST(ResampleUniform, EndpointAtBack) {
    // ti >= t.back() clamps to x.back(); just below it interpolates within
    // the last cell.
    const Vec t{0.0, 1.0};
    const Vec x{0.0, 10.0};
    const Vec u = resampleUniform(t, x, 0.5, 1.0, 2);  // ti = 0.5, 1.0
    EXPECT_NEAR(u[0], 5.0, 1e-12);
    EXPECT_DOUBLE_EQ(u[1], 10.0);  // ti == t.back(): clamped
    // Many samples crammed into the final cell never read past the end.
    const Vec v = resampleUniform(t, x, 0.9, 0.1, 8);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_NEAR(v[i], 9.0 + 0.1 * 10.0 * static_cast<double>(i) / 8.0, 1e-12);
}

/// Reference evaluation of the periodic cubic spline through x in the
/// Hermite form a*x_i + b*x_j + ((a^3-a)m_i + (b^3-b)m_j)h^2/6, with the
/// knot curvatures m from a dense LU solve of the cyclic system — an
/// independent route to the cubic the spline's cell polynomials encode.
double hermiteReference(const Vec& x, double t) {
    const std::size_t n = x.size();
    const double h = 1.0 / static_cast<double>(n);
    Matrix a(n, n);
    Vec rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, (i + n - 1) % n) += h / 6.0;
        a(i, i) += 2.0 * h / 3.0;
        a(i, (i + 1) % n) += h / 6.0;
        rhs[i] = (x[(i + 1) % n] - 2.0 * x[i] + x[(i + n - 1) % n]) / h;
    }
    const Vec m = LuFactor::factor(a)->solve(rhs);
    const double u = wrap01(t) * static_cast<double>(n);
    const std::size_t i = static_cast<std::size_t>(u) % n;
    const std::size_t j = (i + 1) % n;
    const double b = u - std::floor(u);
    const double aw = 1.0 - b;
    return aw * x[i] + b * x[j] + ((aw * aw * aw - aw) * m[i] + (b * b * b - b) * m[j]) * h * h / 6.0;
}

TEST(PackedPeriodicSpline, MatchesSourceSplineEverywhere) {
    // The cell polynomials are the periodic cubic spline: they agree with
    // its Hermite form (curvatures solved independently) to rounding.
    Vec s(16);
    for (std::size_t i = 0; i < 16; ++i) s[i] = std::sin(kTwoPi * i / 16.0) + 0.3 * std::cos(2 * kTwoPi * i / 16.0);
    const PeriodicCubicSpline spline(s);
    for (int i = -300; i <= 300; ++i) {
        const double t = static_cast<double>(i) / 97.0;
        EXPECT_NEAR(spline(t), hermiteReference(s, t), 1e-12) << "t=" << t;
    }
}

TEST(PackedPeriodicSpline, SeamWrapsLikeSourceSpline) {
    // Regression for the seam: when wrap01(t)*n rounds up to n the lookup
    // must take cell 0 at s = 0 (value exactly x_[0]), not cell n-1 at
    // s = 1, which differs by a rounding step.  The scalar and batched
    // calls take the same branch, bitwise.
    Vec s(8);
    for (std::size_t i = 0; i < 8; ++i) s[i] = std::cos(kTwoPi * i / 8.0) - 0.2 * std::sin(3 * kTwoPi * i / 8.0);
    const PeriodicCubicSpline spline(s);

    // Exact integers hit the seam corner: wrap01 == 0, value == x_[0].
    for (double t : {0.0, 1.0, -1.0, 5.0, -7.0, 1024.0}) EXPECT_EQ(spline(t), s[0]) << "t=" << t;
    // Seam-adjacent values from both sides stay continuous and equal to the
    // reference spline to rounding.
    for (double t : {std::nextafter(1.0, 0.0), std::nextafter(1.0, 2.0),
                     1.0 - 1e-13, 1.0 + 1e-13, 2.0 - 1e-13, -1e-13}) {
        EXPECT_NEAR(spline(t), hermiteReference(s, t), 1e-12) << "t=" << t;
        EXPECT_NEAR(spline(t), s[0], 1e-9) << "t=" << t;  // continuity at the knot
    }
    // The batched path takes the same seam branch as operator().
    const double ts[4] = {0.0, std::nextafter(1.0, 0.0), 3.0, -2.0};
    double out[4];
    spline.evalMany(ts, out, 4);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(spline(ts[i]), out[i]);
}

TEST(PeriodicCubicSpline, BatchedEvaluationMatchesScalarBitwise) {
    // evalMany (plain and affine) on the process-wide SIMD tier equals the
    // scalar calls bit for bit, signed zeros included; the simd-parity CI
    // job runs this under PHLOGON_SIMD=0 and =1.
    Vec s(37);
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = -std::sin(kTwoPi * i / 37.0);
    const PeriodicCubicSpline spline(s);
    ASSERT_TRUE(std::signbit(spline(0.0)));  // knot 0 holds -0.0
    std::vector<double> t;
    for (int i = -250; i <= 250; ++i) t.push_back(static_cast<double>(i) / 61.0);
    t.push_back(std::nextafter(1.0, 0.0));
    std::vector<double> plain(t.size()), affine(t.size());
    spline.evalMany(t.data(), plain.data(), t.size());
    spline.evalMany(t.data(), affine.data(), t.size(), 1.7, -0.3);
    for (std::size_t i = 0; i < t.size(); ++i) {
        const double v = spline(t[i]);
        EXPECT_EQ(std::signbit(plain[i]), std::signbit(v)) << "t=" << t[i];
        EXPECT_EQ(plain[i], v) << "t=" << t[i];
        EXPECT_EQ(affine[i], -0.3 + 1.7 * v) << "t=" << t[i];
    }
}

}  // namespace
}  // namespace phlogon::num
