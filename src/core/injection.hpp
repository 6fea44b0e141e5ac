#pragma once
// Injection descriptors: the periodic inputs b(t) of the GAE.
//
// Every injection is a current injected INTO one circuit unknown's KCL
// equation, described as a 1-periodic function of the reference phase
// psi = f1 * t (in cycles).  SYNC is the 2nd harmonic tone
// A*cos(2*pi*2*psi); logic inputs D/S/R are fundamental tones with a phase
// offset encoding the bit (paper eq. 10).

#include <functional>
#include <string>

#include "numeric/matrix.hpp"

namespace phlogon::core {

using num::Vec;

struct Injection {
    /// Unknown (node) index in the oscillator's PpvModel whose KCL receives
    /// the current.
    std::size_t unknownIndex = 0;
    /// 1-periodic current waveform as a function of reference phase psi
    /// (cycles); value in amperes injected into the node.
    std::function<double(double)> currentAtPsi;
    /// Optional phase-dependent form b(psi, dphi): used when the injected
    /// current depends on the oscillator's own lock phase, e.g. a majority
    /// gate with the latch output fed back (paper Fig. 13/14).  When set it
    /// takes precedence over currentAtPsi.
    std::function<double(double, double)> currentAtPsiDphi;
    std::string label;

    bool isPhaseDependent() const { return static_cast<bool>(currentAtPsiDphi); }

    /// Pure tone: A * cos(2*pi*(k*psi - phaseCycles)).
    ///   k = 2, phase 0                -> the SYNC signal of SHIL bit storage;
    ///   k = 1, phase dphiPeak + dphi  -> a phase-logic input aligned with
    ///                                    reference phase `dphi` (eq. 10 uses
    ///                                    a minus sign, i.e. phase + 0.5).
    static Injection tone(std::size_t unknownIndex, double amplitude, int harmonic,
                          double phaseCycles = 0.0, std::string label = {});

    /// Arbitrary sampled 1-periodic waveform (linearly interpolated).
    static Injection sampled(std::size_t unknownIndex, Vec samples, std::string label = {});

    /// Phase-dependent injection b(psi, dphi) (1-periodic in both arguments).
    static Injection phaseDependent(std::size_t unknownIndex,
                                    std::function<double(double, double)> fn,
                                    std::string label = {});

    /// Same injection with its amplitude scaled by `s` (used by sweeps).
    Injection scaled(double s) const;

    /// Evaluate on a uniform psi-grid of n points.
    Vec sampleGrid(std::size_t n) const;
};

}  // namespace phlogon::core
