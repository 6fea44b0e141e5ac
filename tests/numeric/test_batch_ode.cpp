#include "numeric/batch_ode.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/ode_oracle.hpp"

namespace phlogon::num {
namespace {

using testutil::rkf45Scalar;

// Scalar RHS and its batched mirror: per-lane arithmetic is identical, which
// is the precondition for BatchOde's bitwise-equivalence contract.
double decayRhs(double /*t*/, double y) { return -3.0 * y + std::sin(y); }

const BatchRhs1 decayBatch = [](const double* t, const double* y, double* dydt,
                                const unsigned char* /*active*/, std::size_t lanes) {
    for (std::size_t l = 0; l < lanes; ++l) dydt[l] = decayRhs(t[l], y[l]);
};

double stiffishRhs(double t, double y) { return std::cos(10.0 * t) - 0.5 * y * y; }

const BatchRhs1 stiffishBatch = [](const double* t, const double* y, double* dydt,
                                   const unsigned char* /*active*/, std::size_t lanes) {
    for (std::size_t l = 0; l < lanes; ++l) dydt[l] = stiffishRhs(t[l], y[l]);
};

TEST(BatchOde, MatchesScalarTrajectoriesBitwise) {
    // Property test over batch sizes B = 1..8: every lane's accepted-point
    // trajectory must equal the standalone rkf45Scalar run from the same
    // initial condition — bit for bit, including step placement.
    for (std::size_t B = 1; B <= 8; ++B) {
        Vec y0(B);
        for (std::size_t l = 0; l < B; ++l) y0[l] = 0.1 + 0.37 * static_cast<double>(l);
        BatchOde batch(B);
        const BatchOdeSolution sol = batch.rkf45(stiffishBatch, y0, 0.0, 2.5);
        ASSERT_TRUE(sol.ok) << "B=" << B;
        ASSERT_EQ(sol.lanes.size(), B);
        for (std::size_t l = 0; l < B; ++l) {
            const OdeSolution1 ref = rkf45Scalar(stiffishRhs, y0[l], 0.0, 2.5);
            ASSERT_TRUE(ref.ok);
            ASSERT_EQ(sol.lanes[l].t.size(), ref.t.size()) << "B=" << B << " lane=" << l;
            EXPECT_EQ(sol.lanes[l].rejectedSteps, ref.rejectedSteps);
            for (std::size_t p = 0; p < ref.t.size(); ++p) {
                EXPECT_EQ(sol.lanes[l].t[p], ref.t[p]) << "B=" << B << " lane=" << l;
                EXPECT_EQ(sol.lanes[l].y[p], ref.y[p]) << "B=" << B << " lane=" << l;
            }
        }
    }
}

TEST(BatchOde, LanePartitioningDoesNotChangeResults) {
    // Integrating 8 lanes at once or as 2+3+3 must give identical per-lane
    // results: lanes never interact.
    Vec y0(8);
    for (std::size_t l = 0; l < 8; ++l) y0[l] = -1.0 + 0.25 * static_cast<double>(l);
    BatchOde batch;
    const BatchOdeSolution whole = batch.rkf45(decayBatch, y0, 0.0, 1.7);
    ASSERT_TRUE(whole.ok);
    std::size_t lane = 0;
    for (const std::size_t part : {2u, 3u, 3u}) {
        Vec sub(part);
        for (std::size_t i = 0; i < part; ++i) sub[i] = y0[lane + i];
        const BatchOdeSolution piece = batch.rkf45(decayBatch, sub, 0.0, 1.7);
        ASSERT_TRUE(piece.ok);
        for (std::size_t i = 0; i < part; ++i) {
            ASSERT_EQ(piece.lanes[i].y.size(), whole.lanes[lane + i].y.size());
            for (std::size_t p = 0; p < piece.lanes[i].y.size(); ++p)
                EXPECT_EQ(piece.lanes[i].y[p], whole.lanes[lane + i].y[p]);
        }
        lane += part;
    }
}

TEST(BatchOde, RespectsOptionsLikeScalar) {
    OdeOptions opt;
    opt.relTol = 1e-10;
    opt.absTol = 1e-13;
    opt.maxStep = 0.05;
    opt.initialStep = 0.01;
    Vec y0{0.3, 1.1, -0.4};
    BatchOde batch;
    const BatchOdeSolution sol = batch.rkf45(stiffishBatch, y0, 0.0, 1.0, opt);
    ASSERT_TRUE(sol.ok);
    for (std::size_t l = 0; l < y0.size(); ++l) {
        const OdeSolution1 ref = rkf45Scalar(stiffishRhs, y0[l], 0.0, 1.0, opt);
        ASSERT_EQ(sol.lanes[l].t.size(), ref.t.size());
        for (std::size_t p = 0; p < ref.t.size(); ++p)
            EXPECT_EQ(sol.lanes[l].y[p], ref.y[p]);
        // maxStep honoured per lane.
        for (std::size_t p = 1; p < sol.lanes[l].t.size(); ++p)
            EXPECT_LE(sol.lanes[l].t[p] - sol.lanes[l].t[p - 1], opt.maxStep * (1 + 1e-12));
    }
}

TEST(BatchOde, MaxStepsFailsLanesLikeScalar) {
    OdeOptions opt;
    opt.maxSteps = 5;  // far too few
    Vec y0{0.5, 0.7};
    BatchOde batch;
    const BatchOdeSolution sol = batch.rkf45(stiffishBatch, y0, 0.0, 10.0, opt);
    EXPECT_FALSE(sol.ok);
    for (std::size_t l = 0; l < y0.size(); ++l) {
        const OdeSolution1 ref = rkf45Scalar(stiffishRhs, y0[l], 0.0, 10.0, opt);
        EXPECT_EQ(sol.lanes[l].ok, ref.ok);
        ASSERT_EQ(sol.lanes[l].t.size(), ref.t.size());
        for (std::size_t p = 0; p < ref.t.size(); ++p)
            EXPECT_EQ(sol.lanes[l].y[p], ref.y[p]);
    }
}

TEST(BatchOde, EmptyBatchAndDegenerateSpan) {
    BatchOde batch;
    const BatchOdeSolution none = batch.rkf45(decayBatch, Vec{}, 0.0, 1.0);
    EXPECT_TRUE(none.ok);
    EXPECT_TRUE(none.lanes.empty());
    const BatchOdeSolution flat = batch.rkf45(decayBatch, Vec{1.0, 2.0}, 1.0, 1.0);
    EXPECT_TRUE(flat.ok);
    ASSERT_EQ(flat.lanes.size(), 2u);
    for (const auto& lane : flat.lanes) {
        EXPECT_TRUE(lane.ok);
        ASSERT_EQ(lane.y.size(), 1u);
    }
    EXPECT_EQ(flat.lanes[1].y[0], 2.0);
}

TEST(BatchOde, InactiveLanesMayBeSkippedByRhs) {
    // An RHS that writes NaN into inactive lanes must not corrupt active
    // ones (the driver only reads k values for active lanes).
    const BatchRhs1 guarded = [](const double* t, const double* y, double* dydt,
                                 const unsigned char* active, std::size_t lanes) {
        for (std::size_t l = 0; l < lanes; ++l)
            dydt[l] = active[l] ? decayRhs(t[l], y[l]) : std::nan("");
    };
    // Lane 0 finishes much later than lane 1 (tighter tolerance -> more
    // steps), so rounds exist where lane 1 is inactive.
    Vec y0{2.0, 0.001};
    BatchOde batch;
    const BatchOdeSolution sol = batch.rkf45(guarded, y0, 0.0, 3.0);
    ASSERT_TRUE(sol.ok);
    const OdeSolution1 ref = rkf45Scalar(decayRhs, 2.0, 0.0, 3.0);
    ASSERT_EQ(sol.lanes[0].y.size(), ref.y.size());
    for (std::size_t p = 0; p < ref.y.size(); ++p) EXPECT_EQ(sol.lanes[0].y[p], ref.y[p]);
}

}  // namespace
}  // namespace phlogon::num
