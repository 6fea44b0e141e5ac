#include "numeric/roots.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace phlogon::num {
namespace {

TEST(Brent, FindsRootFasterThanBisection) {
    int evalsBrent = 0;
    const auto r = brent(
        [&](double x) {
            ++evalsBrent;
            return std::cos(x) - x;
        },
        0.0, 1.0, 1e-14);
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(*r, 0.7390851332151607, 1e-10);
    EXPECT_LT(evalsBrent, 20);
}

TEST(Brent, HandlesSteepFunctions) {
    const auto r = brent([](double x) { return std::expm1(50.0 * (x - 0.3)); }, 0.0, 1.0);
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(*r, 0.3, 1e-9);
}

TEST(Brent, RejectsNonBracket) {
    EXPECT_FALSE(brent([](double x) { return x * x + 0.5; }, -1.0, 1.0).has_value());
}

TEST(FindAllRootsPeriodic, CountsEquilibriaOfShiftedSinusoid) {
    // sin(2 pi 2 x) - c has 4 roots in [0,1) for |c| < 1.
    for (double c : {-0.5, 0.0, 0.5}) {
        const auto roots = findAllRootsPeriodic(
            [c](double x) { return std::sin(2.0 * std::numbers::pi * 2.0 * x) - c; }, 0.0, 1.0);
        EXPECT_EQ(roots.size(), 4u) << "c=" << c;
    }
    // |c| > 1: none.
    EXPECT_TRUE(findAllRootsPeriodic(
                    [](double x) { return std::sin(2.0 * std::numbers::pi * 2.0 * x) - 1.5; },
                    0.0, 1.0)
                    .empty());
}

TEST(FindAllRootsPeriodic, ClusteredRootsSeparated) {
    // (x-0.5)^2 - eps^2: two roots 2*eps apart.
    const double eps = 1e-3;
    const auto roots = findAllRootsPeriodic(
        [eps](double x) { return (x - 0.5) * (x - 0.5) - eps * eps; }, 0.0, 1.0, 4096);
    ASSERT_EQ(roots.size(), 2u);
    EXPECT_NEAR(roots[0], 0.5 - eps, 1e-8);
    EXPECT_NEAR(roots[1], 0.5 + eps, 1e-8);
}

TEST(FindAllRootsPeriodic, FindsRootsOfSinusoid) {
    const auto roots = findAllRootsPeriodic(
        [](double x) { return std::sin(2.0 * std::numbers::pi * x); }, 0.0, 1.0);
    ASSERT_EQ(roots.size(), 2u);
    EXPECT_NEAR(roots[0], 0.0, 1e-9);
    EXPECT_NEAR(roots[1], 0.5, 1e-9);
}

TEST(FindAllRootsPeriodic, SeamRootReportedExactlyOnce) {
    // Root inside the seam bracket [1-h, 1): the wrapped interval must catch
    // it without also reporting a duplicate near 0.
    const double r0 = 0.9997;
    const auto roots = findAllRootsPeriodic(
        [r0](double x) { return std::sin(2.0 * std::numbers::pi * (x - r0)); }, 0.0, 1.0, 100);
    ASSERT_EQ(roots.size(), 2u);
    EXPECT_NEAR(roots[0], r0 - 0.5, 1e-9);
    EXPECT_NEAR(roots[1], r0, 1e-9);
    for (const double r : roots) {
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(FindAllRootsPeriodic, RootExactlyAtSeamNotDuplicated) {
    // sin(2 pi x) is zero at the seam itself; exactly one representative
    // within 1e-6 of phase 0 may appear.
    const auto roots = findAllRootsPeriodic(
        [](double x) { return std::sin(2.0 * std::numbers::pi * x); }, 0.0, 1.0, 1440);
    std::size_t nearSeam = 0;
    for (const double r : roots)
        if (r < 1e-6 || r > 1.0 - 1e-6) ++nearSeam;
    EXPECT_EQ(nearSeam, 1u);
    EXPECT_EQ(roots.size(), 2u);
}

TEST(FindAllRootsPeriodic, ConstantSignHasNoRoots) {
    EXPECT_TRUE(findAllRootsPeriodic(
                    [](double x) { return std::sin(2.0 * std::numbers::pi * x) + 1.5; }, 0.0, 1.0)
                    .empty());
}

TEST(FindAllRootsPeriodic, NonUnitPeriod) {
    const double twoPi = 2.0 * std::numbers::pi;
    const auto roots = findAllRootsPeriodic([](double x) { return std::sin(x); }, 0.0, twoPi, 720);
    ASSERT_EQ(roots.size(), 2u);
    EXPECT_NEAR(roots[0], 0.0, 1e-9);
    EXPECT_NEAR(roots[1], std::numbers::pi, 1e-9);
}

}  // namespace
}  // namespace phlogon::num
