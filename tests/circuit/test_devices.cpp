#include <gtest/gtest.h>

#include "circuit/dae.hpp"
#include "common/newton_oracle.hpp"

namespace phlogon::ckt {
namespace {

using num::Matrix;
using num::Vec;

/// Check that analytic G matches the finite-difference Jacobian of f at x.
void expectConsistentJacobians(const Dae& dae, double t, const Vec& x, double tol = 1e-5) {
    const Matrix g = dae.evalG(t, x);
    const Matrix gFd = testutil::fdJacobian([&](const Vec& xv) { return dae.evalF(t, xv); }, x);
    for (std::size_t r = 0; r < g.rows(); ++r)
        for (std::size_t c = 0; c < g.cols(); ++c)
            EXPECT_NEAR(g(r, c), gFd(r, c), tol * (1.0 + std::abs(gFd(r, c))))
                << "G mismatch at (" << r << "," << c << ")";
    const Matrix cm = dae.evalC(t, x);
    const Matrix cFd = testutil::fdJacobian([&](const Vec& xv) { return dae.evalQ(t, xv); }, x);
    for (std::size_t r = 0; r < cm.rows(); ++r)
        for (std::size_t c = 0; c < cm.cols(); ++c)
            EXPECT_NEAR(cm(r, c), cFd(r, c), tol * (1.0 + std::abs(cFd(r, c))))
                << "C mismatch at (" << r << "," << c << ")";
}

TEST(Resistor, OhmsLawStamp) {
    Netlist nl;
    nl.addResistor("r1", "a", "b", 100.0);
    Dae dae(nl);
    const Vec x{2.0, 1.0};  // V(a)=2, V(b)=1
    const Vec f = dae.evalF(0.0, x);
    EXPECT_NEAR(f[0], 0.01, 1e-15);   // 1 V over 100 ohm leaves node a
    EXPECT_NEAR(f[1], -0.01, 1e-15);  // and enters node b
}

TEST(Resistor, GroundedStampSkipsGroundRow) {
    Netlist nl;
    nl.addResistor("r1", "a", "0", 50.0);
    Dae dae(nl);
    const Vec f = dae.evalF(0.0, Vec{5.0});
    EXPECT_NEAR(f[0], 0.1, 1e-15);
}

TEST(Resistor, RejectsNonPositive) {
    Netlist nl;
    EXPECT_THROW(nl.addResistor("r", "a", "b", 0.0), std::invalid_argument);
    EXPECT_THROW(nl.addResistor("r", "a", "b", -5.0), std::invalid_argument);
}

TEST(Capacitor, ChargeStamp) {
    Netlist nl;
    nl.addCapacitor("c1", "a", "0", 1e-6);
    Dae dae(nl);
    const Vec q = dae.evalQ(0.0, Vec{3.0});
    EXPECT_NEAR(q[0], 3e-6, 1e-18);
    const Matrix c = dae.evalC(0.0, Vec{3.0});
    EXPECT_NEAR(c(0, 0), 1e-6, 1e-18);
}

TEST(Capacitor, FloatingStampAntisymmetric) {
    Netlist nl;
    nl.addCapacitor("c1", "a", "b", 2e-9);
    Dae dae(nl);
    const Vec q = dae.evalQ(0.0, Vec{1.0, -1.0});
    EXPECT_NEAR(q[0], 4e-9, 1e-20);
    EXPECT_NEAR(q[1], -4e-9, 1e-20);
}

TEST(Capacitor, RejectsNonPositive) {
    Netlist nl;
    EXPECT_THROW(nl.addCapacitor("c", "a", "0", -1e-9), std::invalid_argument);
}

TEST(CurrentSource, SpiceSignConvention) {
    // Positive value: current extracted from p, injected into n.
    Netlist nl;
    nl.addCurrentSource("i1", "p", "n", Waveform::dc(1e-3));
    Dae dae(nl);
    const Vec f = dae.evalF(0.0, Vec{0.0, 0.0});
    EXPECT_NEAR(f[0], 1e-3, 1e-15);
    EXPECT_NEAR(f[1], -1e-3, 1e-15);
}

TEST(CurrentSource, TimeVaryingWaveformEvaluated) {
    Netlist nl;
    nl.addCurrentSource("i1", "p", "0", Waveform::cosine(1e-3, 1000.0));
    Dae dae(nl);
    EXPECT_NEAR(dae.evalF(0.0, Vec{0.0})[0], 1e-3, 1e-12);
    EXPECT_NEAR(dae.evalF(0.25e-3, Vec{0.0})[0], 0.0, 1e-12);
    EXPECT_NEAR(dae.evalF(0.5e-3, Vec{0.0})[0], -1e-3, 1e-12);
}

TEST(VoltageSource, BranchEquationAndKcl) {
    Netlist nl;
    nl.addVoltageSource("v1", "p", "0", Waveform::dc(5.0));
    nl.addResistor("r1", "p", "0", 1000.0);
    Dae dae(nl);
    // Unknowns: V(p), I(v1).  Solve DC by hand: V(p)=5, branch current = -5mA
    // (flows from + terminal through the source).
    const Vec x{5.0, -5e-3};
    const Vec f = dae.evalF(0.0, x);
    EXPECT_NEAR(f[0], 0.0, 1e-12);
    EXPECT_NEAR(f[1], 0.0, 1e-12);
}

TEST(VoltageSource, JacobianConsistent) {
    Netlist nl;
    nl.addVoltageSource("v1", "a", "b", Waveform::dc(1.0));
    nl.addResistor("r1", "a", "0", 10.0);
    nl.addResistor("r2", "b", "0", 20.0);
    Dae dae(nl);
    expectConsistentJacobians(dae, 0.0, Vec{0.5, -0.5, 1e-3});
}

TEST(TimeSwitch, OnOffResistance) {
    Netlist nl;
    nl.addSwitch("s1", "a", "0", [](double t) { return t < 1.0; }, 1e3, 1e9);
    Dae dae(nl);
    EXPECT_NEAR(dae.evalF(0.5, Vec{1.0})[0], 1e-3, 1e-15);  // on: 1 kohm
    EXPECT_NEAR(dae.evalF(2.0, Vec{1.0})[0], 1e-9, 1e-20);  // off: 1 Gohm
}

TEST(TimeSwitch, RejectsNonPositiveResistances) {
    Netlist nl;
    EXPECT_THROW(nl.addSwitch("s", "a", "b", [](double) { return true; }, 0.0, 1e9),
                 std::invalid_argument);
}

TEST(Waveform, PwlInterpolatesAndClamps) {
    const Waveform w = Waveform::pwl({{0.0, 0.0}, {1.0, 10.0}, {2.0, 10.0}});
    EXPECT_DOUBLE_EQ(w(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(w(0.5), 5.0);
    EXPECT_DOUBLE_EQ(w(1.5), 10.0);
    EXPECT_DOUBLE_EQ(w(3.0), 10.0);
}

TEST(Dae, ParallelDevicesSumStamps) {
    Netlist nl;
    nl.addResistor("r1", "a", "0", 100.0);
    nl.addResistor("r2", "a", "0", 100.0);
    Dae dae(nl);
    EXPECT_NEAR(dae.evalF(0.0, Vec{1.0})[0], 0.02, 1e-15);
    EXPECT_NEAR(dae.evalG(0.0, Vec{1.0})(0, 0), 0.02, 1e-15);
}

}  // namespace
}  // namespace phlogon::ckt
