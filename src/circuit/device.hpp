#pragma once
// Device interface and basic passive elements.
//
// Circuits are assembled in modified-nodal-analysis (MNA) form as the DAE of
// paper eq. (1):
//
//     d/dt q(x) + f(x, t) = 0
//
// where x stacks node voltages followed by branch currents (voltage sources).
// Each KCL row sums the currents *leaving* a node; charge contributions go to
// q.  Time-dependent independent sources fold their waveforms into f(x, t).
//
// Every device stamps its contributions (and analytic Jacobians C = dq/dx,
// G = df/dx) through the `Stamps` accumulator, which transparently drops
// ground (index -1) rows/columns.

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "numeric/canon.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"

namespace phlogon::ckt {

using num::canonNum;
using num::Matrix;
using num::SparseMatrix;
using num::Vec;

/// Index of the ground node; stamping to it is a no-op.
inline constexpr int kGround = -1;

/// Accumulator for one evaluation of the full system.  Jacobian pointers may
/// be null when only the residual is required (e.g. inside damping line
/// searches).  Jacobians target either the dense Matrix backend or the
/// pattern-cached SparseMatrix backend (DESIGN.md §15) — device eval code is
/// identical either way.
class Stamps {
public:
    Stamps(Vec& q, Vec& f, Matrix* c, Matrix* g) : q_(q), f_(f), c_(c), g_(g) {}
    Stamps(Vec& q, Vec& f, SparseMatrix* c, SparseMatrix* g) : q_(q), f_(f), sc_(c), sg_(g) {}

    void addQ(int row, double v) {
        if (row >= 0) q_[static_cast<std::size_t>(row)] += v;
    }
    void addF(int row, double v) {
        if (row >= 0) f_[static_cast<std::size_t>(row)] += v;
    }
    void addC(int row, int col, double v) {
        if (row < 0 || col < 0) return;
        if (c_)
            (*c_)(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += v;
        else if (sc_)
            sc_->add(static_cast<std::size_t>(row), static_cast<std::size_t>(col), v);
    }
    void addG(int row, int col, double v) {
        if (row < 0 || col < 0) return;
        if (g_)
            (*g_)(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += v;
        else if (sg_)
            sg_->add(static_cast<std::size_t>(row), static_cast<std::size_t>(col), v);
    }

private:
    Vec& q_;
    Vec& f_;
    Matrix* c_ = nullptr;
    Matrix* g_ = nullptr;
    SparseMatrix* sc_ = nullptr;
    SparseMatrix* sg_ = nullptr;
};

/// Voltage of node `idx` in the unknown vector (0 V for ground).
inline double nodeVoltage(const Vec& x, int idx) {
    return idx >= 0 ? x[static_cast<std::size_t>(idx)] : 0.0;
}

/// Abstract circuit element.
class Device {
public:
    explicit Device(std::string name) : name_(std::move(name)) {}
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    const std::string& name() const { return name_; }

    /// Number of extra branch-current unknowns this device needs.
    virtual int branchCount() const { return 0; }
    /// Called once by the netlist with the index of the first allocated
    /// branch unknown.
    virtual void setBranchIndex(int /*idx*/) {}

    /// Accumulate q, f and (optionally) C, G at state x, time t.
    virtual void eval(double t, const Vec& x, Stamps& s) const = 0;

    /// Canonical one-line description of this device — type, terminals and
    /// every behaviour-determining parameter, with doubles in exact bit form
    /// (canonNum).  Empty means the device cannot be described canonically
    /// (it holds an opaque std::function, e.g. a custom waveform or switch
    /// control), which makes the owning netlist non-cacheable: the artifact
    /// cache then recomputes instead of risking a stale hit.
    virtual std::string canonicalDesc() const { return {}; }

private:
    std::string name_;
};

/// Linear resistor between nodes a and b.
class Resistor : public Device {
public:
    Resistor(std::string name, int a, int b, double ohms);
    void eval(double t, const Vec& x, Stamps& s) const override;
    std::string canonicalDesc() const override;

private:
    int a_, b_;
    double r_, g_;
};

/// Linear capacitor between nodes a and b.
class Capacitor : public Device {
public:
    Capacitor(std::string name, int a, int b, double farads);
    void eval(double t, const Vec& x, Stamps& s) const override;
    std::string canonicalDesc() const override;
    double capacitance() const { return c_; }

private:
    int a_, b_;
    double c_;
};

/// Linear inductor between nodes a and b (flux on a branch-current unknown:
/// d/dt(L i) = V(a) - V(b)).  Enables the LC-tank oscillators the paper
/// lists among PHLOGON's candidate devices.
class Inductor : public Device {
public:
    Inductor(std::string name, int a, int b, double henries);
    int branchCount() const override { return 1; }
    void setBranchIndex(int idx) override { br_ = idx; }
    int branchIndex() const { return br_; }
    void eval(double t, const Vec& x, Stamps& s) const override;
    std::string canonicalDesc() const override;

private:
    int a_, b_;
    int br_ = kGround;
    double l_;
};

/// Polynomial voltage-controlled conductance: i(v) = sum_k coeff[k] * v^(k+1)
/// flowing from a to b.  With coeff = {-g1, 0, g3} (negative linear term,
/// positive cubic) a parallel LC tank becomes a van der Pol oscillator — the
/// classic analytically-tractable test case for PPV/Adler results.
class NonlinearConductance : public Device {
public:
    NonlinearConductance(std::string name, int a, int b, Vec coeffs);
    void eval(double t, const Vec& x, Stamps& s) const override;
    std::string canonicalDesc() const override;

private:
    int a_, b_;
    Vec coeffs_;
};

/// Time-controlled ideal-ish switch: a resistor whose value is Ron when the
/// control predicate is true and Roff otherwise.  Models the transmission
/// gate enabling the D input in the paper's Fig. 9 (Ron = 1 kΩ,
/// Roff = 100 GΩ).
class TimeSwitch : public Device {
public:
    using ControlFn = std::function<bool(double)>;
    TimeSwitch(std::string name, int a, int b, ControlFn on, double ron, double roff);
    void eval(double t, const Vec& x, Stamps& s) const override;

private:
    int a_, b_;
    ControlFn on_;
    double ron_, roff_;
};

}  // namespace phlogon::ckt
