#pragma once
// Independent sources and their waveforms.
//
// Sinusoidal current sources implement the paper's SYNC (eq. following
// Fig. 3: I_SYNC = A cos(2π·2f1·t)) and logic inputs D/S/R (eq. 10).  A
// logic input whose phase flips from bit to bit is a custom waveform built
// over logic::bitSchedule (logic::dataCurrentWaveform, phlogon/encoding.hpp).

#include <functional>
#include <vector>

#include "circuit/device.hpp"

namespace phlogon::ckt {

/// Time-dependent scalar waveform.
class Waveform {
public:
    using Fn = std::function<double(double)>;

    /// Constant value.
    static Waveform dc(double value);
    /// offset + amp * cos(2π f t − 2π phaseCycles).
    static Waveform cosine(double amp, double freqHz, double phaseCycles = 0.0,
                           double offset = 0.0);
    /// Arbitrary user function.
    static Waveform custom(Fn fn);
    /// Piecewise-linear (t, v) pairs; constant extrapolation outside.
    static Waveform pwl(std::vector<std::pair<double, double>> points);

    double operator()(double t) const { return fn_(t); }

    /// Canonical textual form of this waveform (parameters in exact bit form,
    /// see canonNum).  Set only by the closed-form factories dc/cosine/pwl;
    /// empty for custom, whose opaque std::function cannot be fingerprinted —
    /// sources carrying such waveforms make their netlist non-cacheable
    /// (Device::canonicalDesc).
    const std::string& description() const { return desc_; }

private:
    explicit Waveform(Fn fn, std::string desc = {}) : fn_(std::move(fn)), desc_(std::move(desc)) {}
    Fn fn_;
    std::string desc_;
};

/// Independent current source.  SPICE convention: a positive value drives
/// current from node `p` through the source into node `n` — i.e. it is
/// extracted from `p`'s KCL and injected into `n`'s.
class CurrentSource : public Device {
public:
    CurrentSource(std::string name, int p, int n, Waveform w);
    void eval(double t, const Vec& x, Stamps& s) const override;
    std::string canonicalDesc() const override;
    double value(double t) const { return w_(t); }

private:
    int p_, n_;
    Waveform w_;
};

/// Independent voltage source with a branch-current unknown.
class VoltageSource : public Device {
public:
    VoltageSource(std::string name, int p, int n, Waveform w);
    int branchCount() const override { return 1; }
    void setBranchIndex(int idx) override { br_ = idx; }
    int branchIndex() const { return br_; }
    void eval(double t, const Vec& x, Stamps& s) const override;
    std::string canonicalDesc() const override;
    double value(double t) const { return w_(t); }

private:
    int p_, n_;
    int br_ = kGround;
    Waveform w_;
};

}  // namespace phlogon::ckt
