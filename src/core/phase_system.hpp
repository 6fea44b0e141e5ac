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
// computes them: Program, a level-by-level pass over the fan-in cone of the
// signals a caller reads.

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
    /// (post-processing / decoding of gate outputs).  Builds a Program over
    /// this signal's cone for this one call; to sample many instants, build
    /// the Program once.
    /// Throws std::invalid_argument unless dphi.size() == latchCount().
    double signalValue(SignalId id, double t, double f1, const num::Vec& dphi) const;

    std::size_t latchCount() const { return latches_.size(); }
    const PpvModel& latchModel(LatchId latch) const { return *latches_.at(latch).model; }
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
    /// with one Program pass per distinct coupling delay, each Program built
    /// over just the signals that delay's connections read; projects every
    /// latch's inputs onto its PPV with one PpvModel::ppvMany call per
    /// (model, unknown) lane set; and advances all phases as the lanes of
    /// num::BatchOde::rk4Lockstep, whose RK4 combinations run on the
    /// process-wide SIMD tier (numeric/simd/simd.hpp).  Stored points are t0,
    /// every storeEvery-th step and the last step.  ok is false when a stored
    /// phase is non-finite (a NaN or inf from an external or a gate stays in
    /// the phases up to the last point, which is always stored); the
    /// trajectories are then empty.
    Result simulate(double f1, double t0, double t1, const num::Vec& dphi0,
                    std::size_t stepsPerCycle = 64, std::size_t storeEvery = 1) const;

    /// Former name of simulate(), kept so existing callers compile.
    Result simulateBatched(double f1, double t0, double t1, const num::Vec& dphi0,
                           std::size_t stepsPerCycle = 64, std::size_t storeEvery = 1) const {
        return simulate(f1, t0, t1, dphi0, stepsPerCycle, storeEvery);
    }

    /// Compiled evaluator of the signal DAG over the fan-in cone of a set of
    /// root signals.  Construction collapses placeholder chains and lays the
    /// cone out by kind and DAG level in flat arrays:
    ///   * the externals;
    ///   * the latch-output lanes, cos(2 pi (theta_i - dphi_peak_i)) as one
    ///     batch through the cos2pi kernel;
    ///   * the gate levels, each gate's fan-in in CSR form over resolved
    ///     signal ids with its weights in declaration order (the goldens pin
    ///     the rounding that order gives), and each level's clipped gates as
    ///     one batch through the tanh kernel;
    ///   * the copies of root placeholders.
    /// Both kernels run on the process-wide SIMD tier and give the same bits
    /// on every tier (numeric/simd/simd.hpp).  eval() computes each cone
    /// signal exactly once per call; signals outside the cone cost nothing.
    ///
    /// The Program borrows the PhaseSystem: it stays valid only while the
    /// system outlives it and no signals/latches are added.  Construction
    /// throws std::logic_error if a placeholder in the cone is unbound and
    /// std::out_of_range for a root id that names no signal.
    class Program {
    public:
        /// Every signal of `sys`.
        explicit Program(const PhaseSystem& sys);
        /// The signals `roots` read, and only those.
        Program(const PhaseSystem& sys, const std::vector<SignalId>& roots);
        /// out[id] = value of signal id at time t for every signal id in the
        /// cone; out is resized to signalCount() and its other entries are
        /// left as they were.  dphi points at one phase per latch.  `scratch`
        /// is caller-owned working space of any size, so one const Program
        /// serves any number of threads that each bring their own buffers.
        void eval(double t, double f1, const double* dphi, std::vector<double>& out,
                  std::vector<double>& scratch) const;
        /// As above with scratch of its own; throws std::invalid_argument
        /// unless dphi.size() == latchCount().
        void eval(double t, double f1, const num::Vec& dphi, std::vector<double>& out) const;

    private:
        /// A run of gates of one DAG level: [begin, clippedEnd) are clipped,
        /// [clippedEnd, end) are not.
        struct Level {
            std::size_t begin, clippedEnd, end;
        };
        const PhaseSystem* sys_;
        std::vector<SignalId> externals_;
        std::vector<std::size_t> laneLatch_;  ///< latch id of each output lane
        std::vector<double> lanePeak_;        ///< its model's dphiPeak()
        std::vector<SignalId> laneSignal_;    ///< its output signal id
        std::vector<Level> levels_;
        std::vector<SignalId> gateSignal_;  ///< per gate, level by level
        std::vector<unsigned char> gateInvert_;
        std::vector<double> gateClip_;
        std::vector<std::size_t> fanInBegin_;  ///< CSR row starts, gates + 1
        std::vector<SignalId> fanIn_;          ///< resolved input ids
        std::vector<double> weight_;
        std::vector<std::pair<SignalId, SignalId>> copies_;  ///< (placeholder, resolved target)
        std::size_t scratchSize_ = 0;
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
