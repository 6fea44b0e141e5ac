#include "analysis/waveform.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace phlogon::an {
namespace {

using num::Vec;

constexpr double kTwoPi = 2.0 * std::numbers::pi;

Vec sampledCos(double freq, double phaseCycles, double t0, double t1, std::size_t n, Vec* tOut) {
    Vec t(n), x(n);
    for (std::size_t i = 0; i < n; ++i) {
        t[i] = t0 + (t1 - t0) * static_cast<double>(i) / static_cast<double>(n - 1);
        x[i] = std::cos(kTwoPi * (freq * t[i] - phaseCycles));
    }
    if (tOut) *tOut = t;
    return x;
}

TEST(RisingCrossings, CountAndPositions) {
    Vec t;
    const Vec x = sampledCos(1.0, 0.0, 0.0, 3.0, 3000, &t);
    const Vec cr = risingCrossings(t, x, 0.0);
    ASSERT_EQ(cr.size(), 3u);
    // cos rises through 0 at t = 0.75, 1.75, 2.75.
    EXPECT_NEAR(cr[0], 0.75, 1e-3);
    EXPECT_NEAR(cr[1], 1.75, 1e-3);
    EXPECT_NEAR(cr[2], 2.75, 1e-3);
}

TEST(RisingCrossings, IgnoresFallingEdges) {
    const Vec t{0, 1, 2, 3, 4};
    const Vec x{-1, 1, -1, 1, -1};
    EXPECT_EQ(risingCrossings(t, x, 0.0).size(), 2u);
}

TEST(RisingCrossings, LevelOffset) {
    Vec t;
    const Vec x = sampledCos(1.0, 0.0, 0.0, 2.0, 4000, &t);
    const Vec cr = risingCrossings(t, x, 0.5);  // cos = 0.5 rising at t = 5/6
    ASSERT_GE(cr.size(), 1u);
    EXPECT_NEAR(cr[0], 5.0 / 6.0, 1e-3);
}

TEST(EstimatePeriod, RecoverFrequency) {
    Vec t;
    const Vec x = sampledCos(123.0, 0.3, 0.0, 0.1, 20000, &t);
    const PeriodEstimate pe = estimatePeriod(t, x, 0.0);
    ASSERT_TRUE(pe.ok);
    EXPECT_NEAR(pe.frequency, 123.0, 0.05);
    EXPECT_LT(pe.jitter, 1e-5);
}

TEST(EstimatePeriod, FailsOnTooFewCycles) {
    Vec t;
    const Vec x = sampledCos(1.0, 0.0, 0.0, 1.2, 100, &t);
    EXPECT_FALSE(estimatePeriod(t, x, 0.0).ok);
}

TEST(PeakPosition, ParabolicRefinement) {
    const std::size_t n = 64;
    const double truePos = 0.3719;  // deliberately off-grid
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = std::cos(kTwoPi * (static_cast<double>(i) / n - truePos));
    EXPECT_NEAR(peakPosition(x), truePos, 1e-3);
}

TEST(PeakPosition, PeakAtWrapBoundary) {
    const std::size_t n = 32;
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = std::cos(kTwoPi * static_cast<double>(i) / n);
    EXPECT_NEAR(peakPosition(x), 0.0, 1e-6);
}

TEST(MeanPeakToPeak, Basics) {
    EXPECT_DOUBLE_EQ(mean(Vec{1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean(Vec{}), 0.0);
    EXPECT_DOUBLE_EQ(peakToPeak(Vec{-2, 0, 5}), 7.0);
    EXPECT_DOUBLE_EQ(peakToPeak(Vec{}), 0.0);
}

}  // namespace
}  // namespace phlogon::an
