#pragma once
// Full-system transient simulation with phase macromodels (paper Sec. 4.3).
//
// Each oscillator latch is replaced by its PPV macromodel: its entire state
// collapses to one scalar dphi_i governed by the non-averaged phase ODE
// (paper eq. 13)
//
//     d(dphi_i)/dt = (f0_i - f1) + f0_i * v_i(theta_i(t))^T b_i(t),
//     theta_i(t)   = f1 * t + dphi_i(t)            (cycles),
//
// while the memoryless interconnect (op-amp majority/NOT gates, SYNC and
// input sources) is evaluated algebraically each step — the reduced system
// of eq. (14).  Latch output waveforms are reconstructed from xs1(theta_i).
//
// Signals form a DAG built in creation order: externals (functions of t),
// latch outputs (normalized oscillator waveforms) and gates (weighted sums
// with optional inversion and soft clipping — the signal-domain equivalent
// of the breadboard's resistive-feedback op-amp gates).  One evaluator
// computes them: Program, a dependency-sorted pass over the whole DAG.

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ppv_model.hpp"
#include "numeric/ode.hpp"

namespace phlogon::core {

class PhaseSystem {
public:
    using SignalId = int;
    using LatchId = int;

    /// External scalar signal of time (REF, SYNC tones, phase-encoded data
    /// inputs...).
    SignalId addExternal(std::function<double(double)> fn, std::string label = {});

    /// Oscillator latch; returns its id.  The latch's output signal is its
    /// normalized steady-state output (xs_out(theta) - mean)/amplitude,
    /// a unit-swing waveform suitable for gate weighting.
    LatchId addLatch(PpvModel model, std::string label = {});
    /// Shared-model latch: a compiled fabric instantiates hundreds of latches
    /// from ONE characterized design, so they share the macromodel instead of
    /// each copying its PPV/xs tables (keeps memory O(1) in fabric size).
    LatchId addLatch(std::shared_ptr<const PpvModel> model, std::string label = {});
    SignalId latchOutput(LatchId latch);

    /// Weighted sum of signals, optionally inverted (a NOT in phase logic)
    /// and soft-clipped at +-clip (0 disables clipping).
    SignalId addGate(std::vector<std::pair<SignalId, double>> inputs, bool invert = false,
                     double clip = 0.0, std::string label = {});

    /// Forward reference: a signal whose target is bound later.  Needed for
    /// feedback topologies (e.g. the serial adder's cout feeds the carry
    /// flip-flop whose output feeds cout).  Every cycle must pass through a
    /// latch; purely combinational loops are rejected at bind time.
    SignalId addPlaceholder(std::string label = {});
    void bindPlaceholder(SignalId placeholder, SignalId target);

    /// Inject current  gain * signal(t - delayCycles/f1)  [amperes] into
    /// unknown `unknownIndex` of `latch`'s macromodel.  `delayCycles`
    /// implements the coupling phase shift a designer would realize with an
    /// inverter / phase network between a gate output and the oscillator
    /// injection node (see SyncLatchDesign::signalCouplingShift()).
    void connect(LatchId latch, std::size_t unknownIndex, SignalId sig, double gain,
                 double delayCycles = 0.0);

    /// Evaluate a signal at time t given the phases of all latches
    /// (post-processing / decoding of gate outputs).  Builds a Program for
    /// this one call; to sample many instants, build the Program once.
    /// Throws std::invalid_argument unless dphi.size() == latchCount().
    double signalValue(SignalId id, double t, double f1, const num::Vec& dphi) const;

    std::size_t latchCount() const { return latches_.size(); }
    const PpvModel& latchModel(LatchId latch) const { return *latches_.at(latch).model; }
    const std::string& latchLabel(LatchId latch) const { return latches_.at(latch).label; }
    std::size_t signalCount() const { return signals_.size(); }

    struct Result {
        bool ok = false;
        num::Vec t;
        /// dphi[i] is the (unwrapped, cycles) phase trajectory of latch i.
        std::vector<num::Vec> dphi;
        /// Reconstructed output voltage of latch i at stored point k.
        std::vector<num::Vec> vout;
    };

    /// Integrate all latch phases over [t0, t1] with fixed-step RK4
    /// (`stepsPerCycle` steps per reference cycle resolves the fast-varying
    /// eq.-13 right-hand side).  Each RK stage evaluates the gate network
    /// with one Program pass per distinct coupling delay, projects every
    /// latch's inputs onto its PPV, and advances all phases as the lanes of
    /// num::BatchOde::rk4Lockstep, whose RK4 combinations run on the
    /// process-wide SIMD tier (numeric/simd/simd.hpp).  Stored points are t0,
    /// every storeEvery-th step and the last step.
    Result simulate(double f1, double t0, double t1, const num::Vec& dphi0,
                    std::size_t stepsPerCycle = 64, std::size_t storeEvery = 1) const;

    /// Former name of simulate(), kept so existing callers compile.
    Result simulateBatched(double f1, double t0, double t1, const num::Vec& dphi0,
                           std::size_t stepsPerCycle = 64, std::size_t storeEvery = 1) const {
        return simulate(f1, t0, t1, dphi0, stepsPerCycle, storeEvery);
    }

    /// Compiled evaluation program over the signal DAG: placeholder chains
    /// collapsed, every signal placed in one dependency-sorted order, gate
    /// fan-in read from a dense value array.  eval() computes all signals at
    /// one (t, dphi) in a single pass, each signal exactly once, summing a
    /// gate's fan-in in declaration order.
    ///
    /// The Program borrows the PhaseSystem: it stays valid only while the
    /// system outlives it and no signals/latches are added.  Construction
    /// throws std::logic_error if any placeholder is unbound.
    class Program {
    public:
        explicit Program(const PhaseSystem& sys);
        /// out[id] = value of signal id at time t; resized to signalCount().
        /// dphi points at one phase per latch.
        void eval(double t, double f1, const double* dphi, std::vector<double>& out) const;
        /// As above; throws std::invalid_argument unless
        /// dphi.size() == latchCount().
        void eval(double t, double f1, const num::Vec& dphi, std::vector<double>& out) const {
            if (dphi.size() != sys_->latchCount())
                throw std::invalid_argument("PhaseSystem::Program::eval: dphi size mismatch");
            eval(t, f1, dphi.data(), out);
        }
        /// Non-placeholder signal `id` ultimately resolves to.
        SignalId resolved(SignalId id) const { return resolved_.at(static_cast<std::size_t>(id)); }

    private:
        const PhaseSystem* sys_;
        std::vector<SignalId> resolved_;  ///< placeholder chains collapsed
        std::vector<SignalId> order_;     ///< dependency-sorted evaluation order
    };

private:
    struct Latch {
        std::shared_ptr<const PpvModel> model;  ///< shared across fabric latches
        std::string label;
        SignalId outputSignal = -1;
    };
    struct Connection {
        std::size_t unknownIndex;
        SignalId signal;
        double gain;
        double delayCycles;
    };
    enum class SignalKind { External, LatchOutput, Gate, Placeholder };
    struct Signal {
        SignalKind kind;
        std::string label;
        std::function<double(double)> external;           // External
        LatchId latch = -1;                               // LatchOutput
        std::vector<std::pair<SignalId, double>> inputs;  // Gate
        bool invert = false;
        double clip = 0.0;
        SignalId target = -1;  // Placeholder
    };

    /// True when `id` combinationally depends on `of` (latch outputs break
    /// the dependency).  Visits each signal at most once.
    bool dependsOn(SignalId id, SignalId of) const;

    std::vector<Latch> latches_;
    std::vector<std::vector<Connection>> connections_;  // per latch
    std::vector<Signal> signals_;
};

}  // namespace phlogon::core
