#include "circuit/mosfet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "circuit/dae.hpp"
#include "common/newton_oracle.hpp"

namespace phlogon::ckt {
namespace {

using num::Matrix;
using num::Vec;

MosfetParams sharpParams() {
    MosfetParams p;
    p.smoothing = 1e-3;  // near-ideal square law for value checks
    p.lambda = 0.0;
    return p;
}

TEST(MosfetModel, CutoffCurrentNegligible) {
    const MosCurrents c = mosfetEval(sharpParams(), MosPolarity::Nmos, 0.0, 3.0, 0.0);
    EXPECT_LT(std::abs(c.id), 1e-9);
}

TEST(MosfetModel, SaturationSquareLaw) {
    const MosfetParams p = sharpParams();
    // vgs = 1.7 -> vov = 1.0; vds = 3 > vov: saturation, id = K/2 * vov^2.
    const MosCurrents c = mosfetEval(p, MosPolarity::Nmos, 1.7, 3.0, 0.0);
    EXPECT_NEAR(c.id, 0.5 * p.kp, 0.02 * p.kp);
}

TEST(MosfetModel, TriodeRegion) {
    const MosfetParams p = sharpParams();
    // vov = 1.0, vds = 0.2: triode, id = K (vov - vds/2) vds = K * 0.18.
    const MosCurrents c = mosfetEval(p, MosPolarity::Nmos, 1.7, 0.2, 0.0);
    EXPECT_NEAR(c.id, 0.18 * p.kp, 0.02 * p.kp);
}

TEST(MosfetModel, ChannelLengthModulationIncreasesId) {
    MosfetParams p = sharpParams();
    p.lambda = 0.1;
    const double id1 = mosfetEval(p, MosPolarity::Nmos, 1.7, 2.0, 0.0).id;
    const double id2 = mosfetEval(p, MosPolarity::Nmos, 1.7, 3.0, 0.0).id;
    EXPECT_GT(id2, id1);
    EXPECT_NEAR(id2 / id1, 1.3 / 1.2, 0.01);
}

TEST(MosfetModel, PmosMirrorsNmos) {
    const MosfetParams p = sharpParams();
    const MosCurrents n = mosfetEval(p, MosPolarity::Nmos, 1.7, 2.0, 0.0);
    // PMOS with all voltages negated: same magnitude, opposite current.
    const MosCurrents pm = mosfetEval(p, MosPolarity::Pmos, -1.7, -2.0, 0.0);
    EXPECT_NEAR(pm.id, -n.id, 1e-12);
}

TEST(MosfetModel, SourceDrainSymmetry) {
    // Swapping drain/source negates the current (same channel, reversed).
    const MosfetParams p = sharpParams();
    const double fwd = mosfetEval(p, MosPolarity::Nmos, 2.0, 1.0, 0.0).id;
    // Same device with terminals exchanged: vg still 2.0 but now measured
    // from the other side: id(vg=2, vd=0, vs=1) should equal -something
    // consistent with channel reversal.
    const double rev = mosfetEval(p, MosPolarity::Nmos, 2.0, 0.0, 1.0).id;
    EXPECT_GT(fwd, 0.0);
    EXPECT_LT(rev, 0.0);
}

TEST(MosfetModel, ContinuousAcrossVdsZero) {
    const MosfetParams p{};  // default smoothing
    const double eps = 1e-7;
    const MosCurrents a = mosfetEval(p, MosPolarity::Nmos, 1.5, -eps, 0.0);
    const MosCurrents b = mosfetEval(p, MosPolarity::Nmos, 1.5, +eps, 0.0);
    EXPECT_NEAR(a.id, b.id, 1e-8);
    EXPECT_NEAR(a.gm, b.gm, 1e-4);
    EXPECT_NEAR(a.gds, b.gds, 1e-3);
}

TEST(MosfetModel, MultiplicityScalesCurrent) {
    MosfetParams p1{}, p2{};
    p2.m = 2.0;
    const double i1 = mosfetEval(p1, MosPolarity::Nmos, 2.0, 3.0, 0.0).id;
    const double i2 = mosfetEval(p2, MosPolarity::Nmos, 2.0, 3.0, 0.0).id;
    EXPECT_NEAR(i2, 2.0 * i1, 1e-12);
}

// Property-style sweep: analytic gm/gds match finite differences of id over a
// grid of bias points, for both polarities, including vds < 0.
// gtest names each case by a byte dump of its BiasPoint, so the four bytes
// after `pol` are a zeroed member rather than padding: uninitialized padding
// made the case names differ from run to run.
struct BiasPoint {
    BiasPoint(MosPolarity p, double g, double d, double s) : pol(p), vg(g), vd(d), vs(s) {}
    MosPolarity pol;
    std::int32_t zero = 0;
    double vg, vd, vs;
};
static_assert(sizeof(BiasPoint) == sizeof(std::int32_t) * 2 + sizeof(double) * 3,
              "BiasPoint must have no padding bytes");

class MosfetJacobian : public ::testing::TestWithParam<BiasPoint> {};

TEST_P(MosfetJacobian, DerivativesMatchFiniteDifference) {
    const MosfetParams p{};  // defaults with smoothing
    const BiasPoint b = GetParam();
    const double h = 1e-6;
    const MosCurrents c = mosfetEval(p, b.pol, b.vg, b.vd, b.vs);
    const double gmFd = (mosfetEval(p, b.pol, b.vg + h, b.vd, b.vs).id -
                         mosfetEval(p, b.pol, b.vg - h, b.vd, b.vs).id) /
                        (2.0 * h);
    const double gdsFd = (mosfetEval(p, b.pol, b.vg, b.vd + h, b.vs).id -
                          mosfetEval(p, b.pol, b.vg, b.vd - h, b.vs).id) /
                         (2.0 * h);
    EXPECT_NEAR(c.gm, gmFd, 1e-6 + 1e-4 * std::abs(gmFd));
    EXPECT_NEAR(c.gds, gdsFd, 1e-6 + 1e-4 * std::abs(gdsFd));
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosfetJacobian,
    ::testing::Values(
        BiasPoint{MosPolarity::Nmos, 0.0, 1.0, 0.0}, BiasPoint{MosPolarity::Nmos, 0.7, 0.1, 0.0},
        BiasPoint{MosPolarity::Nmos, 1.5, 0.3, 0.0}, BiasPoint{MosPolarity::Nmos, 2.0, 3.0, 0.0},
        BiasPoint{MosPolarity::Nmos, 2.0, -1.0, 0.0}, BiasPoint{MosPolarity::Nmos, 3.0, 0.0, 1.0},
        BiasPoint{MosPolarity::Nmos, 1.2, 0.9, 0.4}, BiasPoint{MosPolarity::Pmos, 0.0, -1.0, 0.0},
        BiasPoint{MosPolarity::Pmos, -1.5, -0.2, 0.0},
        BiasPoint{MosPolarity::Pmos, -2.0, -3.0, 0.0},
        BiasPoint{MosPolarity::Pmos, 1.0, 2.0, 3.0},
        BiasPoint{MosPolarity::Pmos, -1.0, 1.0, 0.0}));

TEST(MosfetDevice, InverterStampJacobianConsistent) {
    Netlist nl;
    nl.addVoltageSource("vdd", "vdd", "0", Waveform::dc(3.0));
    nl.addMosfet("mp", MosPolarity::Pmos, "out", "in", "vdd");
    nl.addMosfet("mn", MosPolarity::Nmos, "out", "in", "0");
    nl.addVoltageSource("vin", "in", "0", Waveform::dc(1.5));
    Dae dae(nl);
    // A few states around the switching point.
    for (double vout : {0.3, 1.5, 2.8}) {
        Vec x{3.0, 0.0, vout, 1.5, 0.0};
        const Matrix g = dae.evalG(0.0, x);
        const Matrix gFd =
            testutil::fdJacobian([&](const Vec& xv) { return dae.evalF(0.0, xv); }, x);
        for (std::size_t r = 0; r < g.rows(); ++r)
            for (std::size_t c = 0; c < g.cols(); ++c)
                EXPECT_NEAR(g(r, c), gFd(r, c), 1e-5 * (1.0 + std::abs(gFd(r, c))));
    }
}

TEST(MosfetDevice, InverterTransfersLowHigh) {
    // DC sweep sanity: output high for low input and vice versa.
    Netlist nl;
    nl.addVoltageSource("vdd", "vdd", "0", Waveform::dc(3.0));
    nl.addMosfet("mp", MosPolarity::Pmos, "out", "in", "vdd");
    nl.addMosfet("mn", MosPolarity::Nmos, "out", "in", "0");
    nl.addResistor("rl", "out", "0", 1e9);  // leak to fix the floating output
    Dae dae(nl);
    const int inIdx = nl.findNode("in");
    const int outIdx = nl.findNode("out");

    for (double vin : {0.2, 2.8}) {
        // Solve KCL at out with in fixed: use Newton on the out voltage only.
        double vout = 1.5;
        for (int it = 0; it < 100; ++it) {
            Vec x(nl.size(), 0.0);
            x[0] = 3.0;  // vdd
            x[static_cast<std::size_t>(inIdx)] = vin;
            x[static_cast<std::size_t>(outIdx)] = vout;
            const Vec f = dae.evalF(0.0, x);
            const Matrix g = dae.evalG(0.0, x);
            const std::size_t o = static_cast<std::size_t>(outIdx);
            const double step = f[o] / g(o, o);
            vout -= std::clamp(step, -0.5, 0.5);
            vout = std::clamp(vout, 0.0, 3.0);
        }
        if (vin < 1.0)
            EXPECT_GT(vout, 2.9);
        else
            EXPECT_LT(vout, 0.1);
    }
}

}  // namespace
}  // namespace phlogon::ckt
