// Dense-vs-sparse linear-solver parity (DESIGN.md §15).
//
// The sparse engine must be a drop-in: with NewtonOptions::linearSolver =
// Sparse, dcop / transient / shooting PSS solve the same nonlinear systems
// through pattern-cached CSR assembly + SparseLu instead of dense LU.  The
// Newton iterates differ only by linear-solve rounding, so converged results
// agree to well below the solver tolerance.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analysis/dcop.hpp"
#include "analysis/pss.hpp"
#include "analysis/transient.hpp"
#include "circuit/subckt.hpp"

namespace phlogon::an {
namespace {

using ckt::Netlist;
using ckt::Waveform;
using num::Vec;

/// RC ladder driven from a DC source, with a weak cubic conductance at every
/// 5th tap so the Jacobian is state-dependent (exercises refactorization).
void buildLadder(Netlist& nl, int sections) {
    nl.addVoltageSource("vin", "n0", "0", Waveform::dc(1.0));
    for (int i = 0; i < sections; ++i) {
        const std::string a = "n" + std::to_string(i);
        const std::string b = "n" + std::to_string(i + 1);
        nl.addResistor("r" + std::to_string(i), a, b, 1e3);
        nl.addCapacitor("c" + std::to_string(i), b, "0", 1e-9);
        if (i % 5 == 0)
            nl.addNonlinearConductance("g" + std::to_string(i), b, "0", Vec{1e-5, 0.0, 2e-5});
    }
}

TEST(SparseParity, DcopMatchesDenseOnNonlinearLadder) {
    Netlist nl;
    buildLadder(nl, 40);
    ckt::Dae dae(nl);

    DcopOptions dense;
    const DcopResult rd = dcOperatingPoint(dae, dense);
    ASSERT_TRUE(rd.ok) << rd.message;

    DcopOptions sparse;
    sparse.newton.linearSolver = num::LinearSolver::Sparse;
    const DcopResult rs = dcOperatingPoint(dae, sparse);
    ASSERT_TRUE(rs.ok) << rs.message;

    ASSERT_EQ(rs.x.size(), rd.x.size());
    for (std::size_t i = 0; i < rd.x.size(); ++i) EXPECT_NEAR(rs.x[i], rd.x[i], 1e-9);

    // The sparse run actually used the sparse engine, and its symbolic
    // analysis was reused across the gmin homotopy stages.
    EXPECT_GT(rs.counters.sparseFactorizations + rs.counters.sparseRefactors, 0u);
    EXPECT_GT(rs.counters.sparseRefactors, rs.counters.sparseFactorizations);
    EXPECT_GT(rs.counters.jacobianNnz, 0u);
    EXPECT_EQ(rd.counters.sparseFactorizations, 0u);
}

TEST(SparseParity, DcopCmosInverterMatchesDense) {
    // Sharply nonlinear MOSFET stamps through the gmin homotopy.
    Netlist nl;
    ckt::addSupply(nl, "vdd", 3.0);
    ckt::buildCmosInverter(nl, "inv", "in", "out", "vdd", ckt::MosfetParams{},
                           ckt::MosfetParams{});
    nl.addVoltageSource("vin", "in", "0", Waveform::dc(1.4));
    nl.addResistor("rl", "out", "0", 1e9);
    ckt::Dae dae(nl);

    const DcopResult rd = dcOperatingPoint(dae);
    ASSERT_TRUE(rd.ok) << rd.message;
    DcopOptions sparse;
    sparse.newton.linearSolver = num::LinearSolver::Sparse;
    const DcopResult rs = dcOperatingPoint(dae, sparse);
    ASSERT_TRUE(rs.ok) << rs.message;
    for (std::size_t i = 0; i < rd.x.size(); ++i) EXPECT_NEAR(rs.x[i], rd.x[i], 1e-7);
}

TEST(SparseParity, TransientMatchesDenseOnNonlinearLadder) {
    Netlist nl;
    buildLadder(nl, 30);
    ckt::Dae dae(nl);
    const Vec x0(dae.size(), 0.0);

    TransientOptions dense;
    dense.dt = 5e-8;
    const TransientResult rd = transient(dae, x0, 0.0, 2e-5, dense);
    ASSERT_TRUE(rd.ok) << rd.message;

    TransientOptions sparse = dense;
    sparse.newton.linearSolver = num::LinearSolver::Sparse;
    const TransientResult rs = transient(dae, x0, 0.0, 2e-5, sparse);
    ASSERT_TRUE(rs.ok) << rs.message;

    ASSERT_EQ(rs.x.size(), rd.x.size());
    const Vec& xd = rd.x.back();
    const Vec& xs = rs.x.back();
    for (std::size_t i = 0; i < xd.size(); ++i) EXPECT_NEAR(xs[i], xd[i], 1e-8);

    // Frozen pattern: the whole run needs exactly one symbolic
    // factorization, everything else is numeric-only refactors.
    EXPECT_EQ(rs.counters.sparseFactorizations, 1u);
    EXPECT_GT(rs.counters.sparseRefactors, 0u);
}

TEST(SparseParity, TransientRingOscillatorMatchesDense) {
    Netlist nl;
    ckt::RingOscSpec spec;
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);
    Vec x0(dae.size(), 0.0);
    x0[static_cast<std::size_t>(nl.findNode("osc.n1"))] = 0.5;  // kick

    TransientOptions dense;
    dense.dt = 2e-7;
    const TransientResult rd = transient(dae, x0, 0.0, 5e-5, dense);
    ASSERT_TRUE(rd.ok) << rd.message;

    TransientOptions sparse = dense;
    sparse.newton.linearSolver = num::LinearSolver::Sparse;
    const TransientResult rs = transient(dae, x0, 0.0, 5e-5, sparse);
    ASSERT_TRUE(rs.ok) << rs.message;

    // An autonomous oscillator amplifies rounding differences along the
    // orbit, so compare mid-trajectory with a tolerance reflecting that.
    const Vec& xd = rd.x[rd.x.size() / 4];
    const Vec& xs = rs.x[rs.x.size() / 4];
    for (std::size_t i = 0; i < xd.size(); ++i) EXPECT_NEAR(xs[i], xd[i], 1e-5);
}

TEST(SparseParity, ShootingPssFrequencyMatchesDense) {
    Netlist nl;
    ckt::RingOscSpec spec;
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);

    PssOptions opt;
    opt.shootingSteps = 200;
    const PssResult rd = shootingPss(dae, opt);
    ASSERT_TRUE(rd.ok) << rd.message;

    PssOptions sopt = opt;
    sopt.stepNewton.linearSolver = num::LinearSolver::Sparse;
    const PssResult rs = shootingPss(dae, sopt);
    ASSERT_TRUE(rs.ok) << rs.message;

    // The period-sensitivity chain stays dense by design; only the inner
    // TRAP-step Newton solves route through SparseLu.  Converged period must
    // agree far inside the shooting tolerance.
    EXPECT_NEAR(rs.f0 / rd.f0, 1.0, 1e-6);
    EXPECT_EQ(rs.phaseUnknown, rd.phaseUnknown);
}

}  // namespace
}  // namespace phlogon::an
