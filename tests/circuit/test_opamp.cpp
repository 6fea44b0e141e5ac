#include "circuit/opamp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/dae.hpp"
#include "circuit/subckt.hpp"
#include "common/newton_oracle.hpp"

namespace phlogon::ckt {
namespace {

using num::Matrix;
using num::Vec;

TEST(OpampModel, ClipsAtRails) {
    OpampParams p;
    // Past the rails only the small residual railSlope remains.
    EXPECT_NEAR(Opamp::clippedOutput(p, 1.0), p.vMax + p.railSlope, 1e-6);
    EXPECT_NEAR(Opamp::clippedOutput(p, -1.0), p.vMin - p.railSlope, 1e-6);
    EXPECT_NEAR(Opamp::clippedOutput(p, 0.0), 0.5 * (p.vMax + p.vMin), 1e-12);
}

TEST(OpampModel, LinearRegionGain) {
    OpampParams p;
    p.gain = 1e3;
    const double dv = 1e-6;
    const double slope = (Opamp::clippedOutput(p, dv) - Opamp::clippedOutput(p, -dv)) / (2 * dv);
    EXPECT_NEAR(slope, 1e3, 1.0);
}

TEST(OpampModel, RejectsBadParams) {
    Netlist nl;
    OpampParams bad;
    bad.vMax = bad.vMin;
    EXPECT_THROW(nl.addOpamp("op", "p", "n", "o", bad), std::invalid_argument);
    OpampParams badR;
    badR.rout = 0.0;
    EXPECT_THROW(nl.addOpamp("op2", "p", "n", "o", badR), std::invalid_argument);
}

TEST(OpampDevice, JacobianConsistent) {
    Netlist nl;
    nl.addOpamp("op", "p", "n", "o", OpampParams{.gain = 100.0});
    nl.addResistor("rp", "p", "0", 1e3);
    nl.addResistor("rn", "n", "0", 1e3);
    nl.addResistor("ro", "o", "0", 1e3);
    Dae dae(nl);
    for (double vd : {0.0, 0.005, -0.02}) {
        Vec x{vd, 0.0, 1.0};
        const Matrix g = dae.evalG(0.0, x);
        const Matrix gFd =
            testutil::fdJacobian([&](const Vec& xv) { return dae.evalF(0.0, xv); }, x);
        for (std::size_t r = 0; r < g.rows(); ++r)
            for (std::size_t c = 0; c < g.cols(); ++c)
                EXPECT_NEAR(g(r, c), gFd(r, c), 1e-4 * (1.0 + std::abs(gFd(r, c))));
    }
}

/// Solve the (small) nonlinear DC system directly with Newton for opamp
/// feedback circuits.
Vec solveDc(const Dae& dae) {
    Vec x(dae.size(), 1.0);
    const testutil::ResidualFn f = [&](const Vec& xv) { return dae.evalF(0.0, xv); };
    const testutil::JacobianFn j = [&](const Vec& xv) { return dae.evalG(0.0, xv); };
    num::NewtonOptions opt;
    opt.maxIter = 200;
    opt.maxStep = 0.5;
    const auto r = testutil::newtonSolve(f, j, x, opt);
    EXPECT_TRUE(r.converged) << r.message;
    return x;
}

TEST(OpampDevice, UnityFollowerTracksInput) {
    Netlist nl;
    nl.addVoltageSource("vin", "in", "0", Waveform::dc(1.2));
    nl.addOpamp("op", "in", "out", "out");
    nl.addResistor("rl", "out", "0", 10e3);
    Dae dae(nl);
    const Vec x = solveDc(dae);
    EXPECT_NEAR(x[static_cast<std::size_t>(nl.findNode("out"))], 1.2, 1e-3);
}

TEST(InvertingSummer, WeightedSumAroundBias) {
    Netlist nl;
    addSupply(nl, "vmid", 1.5);
    nl.addVoltageSource("v1", "in1", "0", Waveform::dc(2.0));   // +0.5 from bias
    nl.addVoltageSource("v2", "in2", "0", Waveform::dc(1.0));   // -0.5 from bias
    buildInvertingSummer(nl, "sum", {{"in1", 1.0}, {"in2", 2.0}}, "out", "vmid");
    Dae dae(nl);
    const Vec x = solveDc(dae);
    // out = bias - [1*(0.5) + 2*(-0.5)] = 1.5 + 0.5 = 2.0
    EXPECT_NEAR(x[static_cast<std::size_t>(nl.findNode("out"))], 2.0, 5e-3);
}

TEST(InvertingSummer, SaturatesAtRails) {
    Netlist nl;
    addSupply(nl, "vmid", 1.5);
    nl.addVoltageSource("v1", "in1", "0", Waveform::dc(3.0));  // +1.5 from bias
    buildInvertingSummer(nl, "sum", {{"in1", 3.0}}, "out", "vmid");
    Dae dae(nl);
    const Vec x = solveDc(dae);
    // Ideal output would be 1.5 - 4.5 = -3: clipped near the 0 V rail.
    EXPECT_LT(x[static_cast<std::size_t>(nl.findNode("out"))], 0.2);
    EXPECT_GE(x[static_cast<std::size_t>(nl.findNode("out"))], -0.1);
}

TEST(InvertingSummer, RejectsBadInputs) {
    Netlist nl;
    addSupply(nl, "vmid", 1.5);
    EXPECT_THROW(buildInvertingSummer(nl, "s", {}, "out", "vmid"), std::invalid_argument);
    EXPECT_THROW(buildInvertingSummer(nl, "s", {{"a", -1.0}}, "out", "vmid"),
                 std::invalid_argument);
}

}  // namespace
}  // namespace phlogon::ckt
