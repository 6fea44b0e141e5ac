#pragma once
// Phase-logic references and SYNC-latch design (paper Sec. 4.1).
//
// A characterized oscillator + SYNC injection yields:
//   * the two SHIL lock phases (0.5 cycles apart) that encode logic 1 / 0,
//   * the REF waveforms of eqs. (8)-(9),
//   * the input phase calibration: the tone phase an injected logic input
//     must carry to pull the latch toward a given lock phase.  (The paper's
//     eq. (10) hard-codes a sign flip; the tool computes the exact offset
//     from the PPV so any oscillator works.)

#include <functional>

#include "core/gae.hpp"
#include "core/injection.hpp"
#include "core/ppv_model.hpp"

namespace phlogon::logic {

using core::Injection;
using core::PpvModel;

/// Phase encoding conventions of one latch/system.
struct PhaseReference {
    double f1 = 0.0;
    double dphiPeak = 0.0;  ///< output peak position within the cycle (eq. 6)
    double phase1 = 0.0;    ///< lock phase (cycles) encoding logic 1
    double phase0 = 0.5;    ///< lock phase encoding logic 0 (phase1 + 0.5)
    double vdd = 3.0;

    double phaseForBit(int bit) const { return bit ? phase1 : phase0; }
    /// Nearest-lock-phase decode of a measured dphi.
    int decode(double dphi) const;

    /// Unit-amplitude phase-logic signal for PhaseSystem gates:
    /// cos(2 pi (f1 t - dphiPeak - phase_bit)); matches the shape of
    /// normalized latch outputs.
    std::function<double(double)> refSignal(int bit) const;
};

/// A ring-oscillator (or any oscillator) latch design: the macromodel plus
/// SYNC configuration and the derived encoding/calibration data.
struct SyncLatchDesign {
    PpvModel model;
    std::size_t injUnknown = 0;  ///< node receiving SYNC and logic inputs
    double f1 = 0.0;
    double syncAmp = 0.0;
    PhaseReference reference;
    /// Lock phase of a unit fundamental tone injected with phase 0 (the
    /// PPV-intrinsic offset used for input phase calibration).
    double inputPhaseOffset = 0.0;

    /// SYNC injection (2nd harmonic tone).
    Injection sync() const;
    /// Tone phase chi that locks the oscillator at `targetDphi`.
    double inputPhaseFor(double targetDphi) const;
    /// Logic-input injection pulling toward bit `bit` (eq. 10 analogue).
    Injection dataInjection(double amp, int bit) const;
    /// Coupling phase shift (cycles) to apply between a phase-encoded
    /// *signal* (REF-aligned waveform) and the injected current so the
    /// signal's logic value is written into the latch.
    double signalCouplingShift() const;
};

/// Characterize a latch: run the SYNC-only GAE for the lock phases and the
/// unit-tone GAE for input calibration.  Throws std::runtime_error when SHIL
/// does not produce exactly two stable phases (i.e. the design does not
/// store a bit at this SYNC amplitude).
SyncLatchDesign designSyncLatch(PpvModel model, std::size_t injUnknown, double f1,
                                double syncAmp, double vdd = 3.0);

}  // namespace phlogon::logic
