#include "common/ode_oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace phlogon::num {
namespace {

using testutil::OdeRhs;
using testutil::rk4;
using testutil::rkf45;
using testutil::rkf45Scalar;

TEST(Rkf45, ExponentialDecay) {
    const OdeRhs f = [](double, const Vec& y) { return Vec{-y[0]}; };
    const OdeSolution s = rkf45(f, Vec{1.0}, 0.0, 5.0);
    ASSERT_TRUE(s.ok);
    EXPECT_NEAR(s.y.back()[0], std::exp(-5.0), 1e-6);
}

TEST(Rkf45, HarmonicOscillatorConservesAmplitude) {
    const OdeRhs f = [](double, const Vec& y) { return Vec{y[1], -y[0]}; };
    OdeOptions opt;
    opt.relTol = 1e-9;
    const OdeSolution s = rkf45(f, Vec{1.0, 0.0}, 0.0, 4.0 * std::numbers::pi, opt);
    ASSERT_TRUE(s.ok);
    // After two full periods: back to (1, 0).
    EXPECT_NEAR(s.y.back()[0], 1.0, 1e-6);
    EXPECT_NEAR(s.y.back()[1], 0.0, 1e-6);
}

TEST(Rkf45, AdaptsStepsToTolerance) {
    const OdeRhs f = [](double t, const Vec& y) { return Vec{std::cos(10.0 * t) * y[0]}; };
    OdeOptions loose, tight;
    loose.relTol = 1e-3;
    tight.relTol = 1e-10;
    const OdeSolution sl = rkf45(f, Vec{1.0}, 0.0, 2.0, loose);
    const OdeSolution st = rkf45(f, Vec{1.0}, 0.0, 2.0, tight);
    ASSERT_TRUE(sl.ok && st.ok);
    EXPECT_LT(sl.t.size(), st.t.size());
    const double exact = std::exp(std::sin(20.0) / 10.0);
    EXPECT_NEAR(st.y.back()[0], exact, 1e-8);
}

TEST(Rkf45, MaxStepRespected) {
    const OdeRhs f = [](double, const Vec&) { return Vec{1.0}; };
    OdeOptions opt;
    opt.maxStep = 0.01;
    const OdeSolution s = rkf45(f, Vec{0.0}, 0.0, 1.0, opt);
    ASSERT_TRUE(s.ok);
    for (std::size_t i = 1; i < s.t.size(); ++i) EXPECT_LE(s.t[i] - s.t[i - 1], 0.01 + 1e-12);
}

TEST(Rkf45, ZeroSpanOk) {
    const OdeRhs f = [](double, const Vec& y) { return Vec{-y[0]}; };
    const OdeSolution s = rkf45(f, Vec{2.0}, 1.0, 1.0);
    EXPECT_TRUE(s.ok);
    EXPECT_EQ(s.t.size(), 1u);
}

TEST(Rkf45, StiffRejectionsCounted) {
    // Moderately fast decay forces some step rejections at loose initial step.
    const OdeRhs f = [](double, const Vec& y) { return Vec{-200.0 * y[0]}; };
    OdeOptions opt;
    opt.initialStep = 0.1;
    const OdeSolution s = rkf45(f, Vec{1.0}, 0.0, 0.5, opt);
    ASSERT_TRUE(s.ok);
    EXPECT_GT(s.rejectedSteps, 0u);
    EXPECT_NEAR(s.y.back()[0], 0.0, 1e-6);
}

TEST(Rkf45Scalar, MatchesVectorVersion) {
    const OdeSolution1 s =
        rkf45Scalar([](double, double y) { return -2.0 * y; }, 3.0, 0.0, 1.0);
    ASSERT_TRUE(s.ok);
    EXPECT_NEAR(s.y.back(), 3.0 * std::exp(-2.0), 1e-6);
    EXPECT_EQ(s.t.size(), s.y.size());
}

TEST(Rk4, FixedStepConvergesFourthOrder) {
    const OdeRhs f = [](double, const Vec& y) { return Vec{-y[0]}; };
    const double exact = std::exp(-1.0);
    const OdeSolution s1 = rk4(f, Vec{1.0}, 0.0, 1.0, 10);
    const OdeSolution s2 = rk4(f, Vec{1.0}, 0.0, 1.0, 20);
    const double e1 = std::abs(s1.y.back()[0] - exact);
    const double e2 = std::abs(s2.y.back()[0] - exact);
    EXPECT_GT(e1 / e2, 12.0);  // ~16x for 4th order
}

TEST(Rk4, UniformGridProduced) {
    const OdeRhs f = [](double, const Vec&) { return Vec{0.0}; };
    const OdeSolution s = rk4(f, Vec{1.0}, 0.0, 1.0, 4);
    ASSERT_EQ(s.t.size(), 5u);
    EXPECT_DOUBLE_EQ(s.t[1], 0.25);
    EXPECT_DOUBLE_EQ(s.t[4], 1.0);
}

TEST(Rk4, TimeDependentRhs) {
    // y' = t  ->  y(1) = 0.5.
    const OdeRhs f = [](double t, const Vec&) { return Vec{t}; };
    const OdeSolution s = rk4(f, Vec{0.0}, 0.0, 1.0, 50);
    EXPECT_NEAR(s.y.back()[0], 0.5, 1e-12);
}

}  // namespace
}  // namespace phlogon::num
