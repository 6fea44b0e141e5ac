#pragma once
// Shared, lazily-characterized ring oscillator for the analysis/core/logic
// test suites.  The full PSS + PPV pipeline runs once per binary (~12 ms) and
// is reused by every test that needs a realistic oscillator macromodel.

#include "phlogon/latch.hpp"
#include "phlogon/reference.hpp"

namespace phlogon::testutil {

inline const logic::RingOscCharacterization& sharedOsc() {
    static const logic::RingOscCharacterization osc =
        logic::RingOscCharacterization::run(ckt::RingOscSpec{});
    return osc;
}

/// The paper's reference frequency.
inline constexpr double kF1 = 9.6e3;

/// Latch design at the paper's SYNC amplitude (100 uA) — used by the
/// locking-range / bit-flip experiments.
inline const logic::SyncLatchDesign& sharedDesign() {
    static const logic::SyncLatchDesign d =
        logic::designSyncLatch(sharedOsc().model(), sharedOsc().outputUnknown(), kF1, 100e-6);
    return d;
}

/// Stronger-SYNC design used by multi-latch FSMs (the hold barrier must
/// exceed gate-residue disturbances; see PhaseDLatchOptions::clockWeight).
inline const logic::SyncLatchDesign& sharedFsmDesign() {
    static const logic::SyncLatchDesign d =
        logic::designSyncLatch(sharedOsc().model(), sharedOsc().outputUnknown(), kF1, 300e-6);
    return d;
}

}  // namespace phlogon::testutil
