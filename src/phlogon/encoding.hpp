#pragma once
// Bit-stream encoding: turn logical bit sequences into phase schedules,
// circuit-level source waveforms and phase-domain signals, and decode
// phase-domain signals back into bits.

#include <functional>
#include <vector>

#include "circuit/sources.hpp"
#include "core/phase_system.hpp"
#include "phlogon/reference.hpp"

namespace phlogon::logic {

using Bits = std::vector<int>;

/// Piecewise-constant schedule: value bits[k] on
/// [tStart + k*bitPeriod, tStart + (k+1)*bitPeriod); bits.back() afterwards,
/// bits.front() before tStart.  Throws std::invalid_argument on an empty
/// stream or a bit period that is not positive and finite.
std::function<int(double)> bitSchedule(Bits bits, double bitPeriod, double tStart = 0.0);

/// CLK bit stream of a clocked phase-logic machine, one bit per half slot:
/// 0 for the first half of each of `slots` slots (slaves transparent, state
/// readable), 1 for the second (masters sample).
Bits clockBits(std::size_t slots);
/// Bitwise NOT of a stream (CLK -> ~CLK).
Bits invertBits(const Bits& bits);

/// Circuit-level logic-input current waveform carrying a bit stream:
/// amp * cos(2 pi (f1 t - chi(t))) with chi switching between the calibrated
/// write phases of the two bits (the tool-computed version of eq. 10).
ckt::Waveform dataCurrentWaveform(const SyncLatchDesign& d, double amp, Bits bits,
                                  double bitPeriod, double tStart = 0.0);

/// Unit-amplitude phase-encoded *signal* (REF-aligned, eq. 8/9 shape) for a
/// bit stream, for use as a PhaseSystem external or an oscilloscope overlay:
/// cos(2 pi (f1 t - dphiPeak - phase_bit(t))).
std::function<double(double)> dataSignal(const PhaseReference& ref, Bits bits, double bitPeriod,
                                         double tStart = 0.0);

/// Circuit-level REF-aligned voltage waveform (eq. 8/9) for a bit stream,
/// swinging [0, vdd] around vdd/2.
ckt::Waveform dataVoltageWaveform(const PhaseReference& ref, Bits bits, double bitPeriod,
                                  double tStart = 0.0);

/// Phase-logic value of each signal in `sigs` near time `tCenter`: the sign
/// of its correlation against REF(1) over one reference cycle (64 samples,
/// one `prog` pass per sample).  `prog` must cover `sigs`; `dphi` holds the
/// phase of every latch of its system.
Bits decodeSignals(const core::PhaseSystem::Program& prog, const PhaseReference& ref,
                   double tCenter, const num::Vec& dphi,
                   const std::vector<core::PhaseSystem::SignalId>& sigs);

/// dphi vector interpolated from a simulation result at time t (clamped to
/// the first/last stored point outside the run).
num::Vec dphiAt(const core::PhaseSystem::Result& res, double t);

}  // namespace phlogon::logic
