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
// of the breadboard's resistive-feedback op-amp gates).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ppv_model.hpp"
#include "numeric/ode.hpp"

namespace phlogon::core {

/// Knobs for PhaseSystem::simulateBatched.  Both are bitwise-neutral: lanes
/// are partitioned across blocks/threads, never reduced across.
struct BatchSimOptions {
    /// Worker threads for the per-latch projection loop: 0 = PHLOGON_THREADS
    /// env or hardware concurrency, 1 = serial.
    unsigned threads = 0;
    /// Lanes per scheduling block; 0 picks a fixed default independent of
    /// the thread count.
    std::size_t blockSize = 0;
};

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

    /// Evaluate a signal at time t given latch phases (post-processing /
    /// decoding of gate outputs).
    double signalValue(SignalId id, double t, double f1, const num::Vec& dphi) const {
        return evalSignal(id, t, f1, dphi);
    }

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
    /// eq.-13 right-hand side).
    Result simulate(double f1, double t0, double t1, const num::Vec& dphi0,
                    std::size_t stepsPerCycle = 64, std::size_t storeEvery = 1) const;

    /// Compiled evaluation program over the signal DAG: placeholder chains
    /// collapsed, every signal placed in one topologically-sorted order, gate
    /// fan-in read from a dense value array.  eval() computes all signals at
    /// one (t, dphi) in a single sparse pass — each signal exactly once, with
    /// the same per-signal arithmetic (and per-gate summation order) as
    /// evalSignal, so values are bitwise identical to the recursive path.
    ///
    /// The Program borrows the PhaseSystem: it stays valid only while the
    /// system outlives it and no signals/latches are added.  Construction
    /// throws std::logic_error if any placeholder is unbound (the scalar path
    /// defers that error to first evaluation).
    class Program {
    public:
        explicit Program(const PhaseSystem& sys);
        /// out[id] = value of signal id at time t; resized to signalCount().
        void eval(double t, double f1, const double* dphi, std::vector<double>& out) const;
        void eval(double t, double f1, const num::Vec& dphi, std::vector<double>& out) const {
            eval(t, f1, dphi.data(), out);
        }
        /// Non-placeholder signal `id` ultimately resolves to.
        SignalId resolved(SignalId id) const { return resolved_.at(static_cast<std::size_t>(id)); }

    private:
        const PhaseSystem* sys_;
        std::vector<SignalId> resolved_;  ///< placeholder chains collapsed
        std::vector<SignalId> order_;     ///< dependency-sorted evaluation order
    };

    /// Batched fabric engine: same reduced system as simulate(), but all
    /// latch phases advance through num::BatchOde SoA lanes in lockstep — one
    /// topologically-sorted sparse gate-network pass per RK stage and delay
    /// group (Program::eval) instead of per-latch recursive walks, and a
    /// flat per-latch projection loop that parallelizes over lane blocks.
    /// The RK4 combinations run on the process-wide SIMD tier
    /// (numeric/simd/simd.hpp).  Bitwise-identical to simulate() at any
    /// fabric size, block partition, thread count and tier: see DESIGN.md
    /// §14 for the determinism argument.
    Result simulateBatched(double f1, double t0, double t1, const num::Vec& dphi0,
                           std::size_t stepsPerCycle = 64, std::size_t storeEvery = 1,
                           const BatchSimOptions& opt = {}) const;

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
    /// the dependency).
    bool dependsOn(SignalId id, SignalId of) const;

    /// Recursively evaluate one signal at time t.  Latch phases dphi are the
    /// slow state; a latch output at (possibly delayed) time t' uses
    /// theta = f1*t' + dphi (dphi treated as constant over a delay of a
    /// fraction of a cycle).
    double evalSignal(SignalId id, double t, double f1, const num::Vec& dphi) const;

    /// Per-stage memo for signal evaluation inside simulate(): evalSignal is
    /// a pure function of (id, t, f1, dphi), so during one gate-network
    /// evaluation (one RK stage, all latches advanced as a batch) each
    /// signal is computed at most once per distinct time argument — latches
    /// sharing gate fan-in stop re-walking the DAG.  Bitwise-neutral: a
    /// cached value is exactly what the recursion would return, and the
    /// gates' summation order is unchanged.
    struct EvalCache {
        std::vector<std::uint64_t> stamp;
        std::vector<double> t;
        std::vector<double> v;
        std::uint64_t cur = 0;
        std::size_t hits = 0;
        std::size_t misses = 0;
    };
    double evalSignalCached(SignalId id, double t, double f1, const num::Vec& dphi,
                            EvalCache& cache) const;

    std::vector<Latch> latches_;
    std::vector<std::vector<Connection>> connections_;  // per latch
    std::vector<Signal> signals_;
};

}  // namespace phlogon::core
