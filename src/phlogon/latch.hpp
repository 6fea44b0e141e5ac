#pragma once
// Oscillator latches (paper Secs. 4.1-4.2).
//
//   * RingOscCharacterization — the front of the tool chain: build the ring
//     oscillator netlist, run shooting PSS and PPV extraction, assemble the
//     PpvModel.
//   * Circuit-level builders for the paper's latch prototypes: the Fig. 9
//     D latch (phase-encoded D, level-encoded EN through a transmission-gate
//     switch) used in the bit-flip experiments, and the SYNC-only storage
//     latch.
//   * Phase-domain builders: the fully phase-encoded D latch of Fig. 13
//     realized with two majority gates,
//         S = MAJ(D, CLK, const0),   R = MAJ(D, ~CLK, const1),
//     so that CLK=1 makes both gates push D into the oscillator while CLK=0
//     makes them cancel (the latch holds by SHIL alone), plus the SR-latch
//     majority-gate injection used for the Fig. 14 weight study.

#include <memory>

#include "analysis/ppv.hpp"
#include "analysis/pss.hpp"
#include "circuit/dae.hpp"
#include "circuit/subckt.hpp"
#include "core/phase_system.hpp"
#include "io/model_cache.hpp"
#include "phlogon/reference.hpp"

namespace phlogon::logic {

/// End-to-end characterization of a free-running ring oscillator.
class RingOscCharacterization {
public:
    /// Build the netlist from `spec` and run PSS + time-domain PPV, consulting
    /// `cache` first: a valid cached extraction is substituted without
    /// touching the solvers.  A phaseUnknown of -1 is pinned to the output
    /// n1, so t = 0 of the PSS (and every phase downstream) is n1's rising
    /// mean-crossing.  Throws std::runtime_error on analysis failure.
    static RingOscCharacterization run(
        const ckt::RingOscSpec& spec, an::PssOptions pssOpt = defaultPssOptions(),
        const io::ArtifactCache& cache = io::ArtifactCache::global());

    static an::PssOptions defaultPssOptions();

    const ckt::Netlist& netlist() const { return *nl_; }
    const ckt::Dae& dae() const { return *dae_; }
    const an::PssResult& pss() const { return pss_; }
    const an::PpvResult& ppv() const { return ppv_; }
    const core::PpvModel& model() const { return model_; }
    /// Unknown index of stage output n1 (the observed output and the SYNC /
    /// logic-input injection node).
    std::size_t outputUnknown() const { return outputUnknown_; }
    double f0() const { return pss_.f0; }

    /// How the extraction was obtained (hit = substituted from the artifact
    /// cache; the pss()/ppv() counters then report zero work).
    io::CacheOutcome cacheOutcome() const { return cacheOutcome_; }
    bool fromCache() const { return cacheOutcome_ == io::CacheOutcome::Hit; }
    /// Content key of the characterization (0 when not cacheable).
    std::uint64_t cacheKey() const { return cacheKey_; }

private:
    RingOscCharacterization() = default;
    std::unique_ptr<ckt::Netlist> nl_;
    std::unique_ptr<ckt::Dae> dae_;
    an::PssResult pss_;
    an::PpvResult ppv_;
    core::PpvModel model_;
    std::size_t outputUnknown_ = 0;
    io::CacheOutcome cacheOutcome_ = io::CacheOutcome::Disabled;
    std::uint64_t cacheKey_ = 0;
};

/// Circuit-level SYNC storage latch: ring oscillator + SYNC current source
/// at n1.  Returns the oscillator interface nodes.
ckt::RingOscNodes buildSyncLatchCircuit(ckt::Netlist& nl, const std::string& prefix,
                                        const ckt::RingOscSpec& spec, double syncAmp, double f1);

struct DLatchEnCircuit {
    ckt::RingOscNodes osc;
    std::string dSourceNode;  ///< internal node of the D current source
};

/// Paper Fig. 9: ring-oscillator D latch with a phase-encoded D current
/// (given as `dCurrent`, output impedance `dRout` = 10 Mohm) gated by a
/// level-encoded EN controlling a transmission-gate switch
/// (Ron = 1 kohm, Roff = 100 Gohm).
DLatchEnCircuit buildDLatchEnCircuit(ckt::Netlist& nl, const std::string& prefix,
                                     const ckt::RingOscSpec& spec, double syncAmp, double f1,
                                     ckt::Waveform dCurrent, ckt::TimeSwitch::ControlFn en,
                                     double dRout = 10e6, double ron = 1e3, double roff = 100e9);

/// The externals every phase D latch of one system shares: the SYNC tone
/// (coupled into each latch with gain 1), the REF-aligned constant levels
/// of the S/R gates, and one copy of the latch macromodel.
struct PhaseLatchBus {
    core::PhaseSystem::SignalId sync = -1;
    core::PhaseSystem::SignalId const0 = -1;
    core::PhaseSystem::SignalId const1 = -1;
    std::shared_ptr<const core::PpvModel> model;
};

/// Add the shared latch externals of `design` to `sys` (once per system).
PhaseLatchBus addPhaseLatchBus(core::PhaseSystem& sys, const SyncLatchDesign& design);

/// Phase-domain fully phase-encoded D latch (Fig. 13), built into `sys`.
struct PhaseDLatch {
    core::PhaseSystem::LatchId latch = -1;
    core::PhaseSystem::SignalId out = -1;    ///< normalized oscillator output
    core::PhaseSystem::SignalId sGate = -1;  ///< MAJ(D, CLK, 0)
    core::PhaseSystem::SignalId rGate = -1;  ///< MAJ(D, ~CLK, 1)
};

struct PhaseDLatchOptions {
    /// Weight of the CLK and constant gate inputs relative to D.  During a
    /// write CLK and the constant cancel exactly, so this does not affect
    /// write strength; during hold it divides the angular deflection the
    /// in-transit D input can impose on the gate outputs (the residue that
    /// disturbs a holding latch) by ~clockWeight.
    double clockWeight = 4.0;
};

/// `d`/`clk`/`clkBar` are phase-encoded signals already in `sys` (REF-aligned
/// shape, unit amplitude); `bus` comes from addPhaseLatchBus on the same
/// system.  Adds three signals: the latch output and the S and R gates,
/// soft-clipped at 0.3 (hard-ish clipping equalizes S/R amplitudes so they
/// cancel cleanly when CLK disables the latch) and scaled so that together
/// they write 150 uA when CLK enables it.
PhaseDLatch addPhaseDLatch(core::PhaseSystem& sys, const SyncLatchDesign& design,
                           const PhaseLatchBus& bus, core::PhaseSystem::SignalId d,
                           core::PhaseSystem::SignalId clk, core::PhaseSystem::SignalId clkBar,
                           const PhaseDLatchOptions& opt = {}, const std::string& label = "dlatch");

/// Fig. 13/14 SR-latch injection: the oscillator is driven by a weighted
/// majority gate  MAJ_w(S, R, Q_feedback)  whose output couples into the
/// injection node through the calibrated phase shift.  Returns a
/// phase-dependent GAE injection (the feedback samples the latch's own
/// steady-state output at its current lock phase).
///   aS, aR  — input amplitudes normalized to Vdd/2;
///   bS, bR  — the bits the inputs encode;
///   w       — gate weights {wS, wR, wFeedback};
///   gm      — transconductance: injected amperes per unit gate output.
core::Injection srGateInjection(const SyncLatchDesign& design, double gm, double gateClip,
                                double aS, int bS, double aR, int bR, double wS, double wR,
                                double wFb);

}  // namespace phlogon::logic
