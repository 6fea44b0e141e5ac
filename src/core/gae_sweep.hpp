#pragma once
// Parameter sweeps over GAE equilibria — the paper's latch characterization
// tools:
//   * locking range vs injection amplitude (Fig. 7),
//   * lock-phase error across the locking range (Fig. 8),
//   * stable lock phases vs a logic input's amplitude (Figs. 11 & 14),
//   * intersection counting for the graphical eq.-(5) plots (Figs. 5 & 10).
//
// The sweeps that build one GAE per point map their points over the
// process-wide pool (num::parallelMap, sized by PHLOGON_THREADS), so every
// table is bitwise identical at any thread count.

#include <vector>

#include "core/gae.hpp"

namespace phlogon::core {

/// Cyclic distance between two phases in cycles (result in [0, 0.5]).
double phaseDistance(double a, double b);

struct LockingRange {
    bool locks = false;
    double fLow = 0.0;   ///< lowest f1 with a stable lock
    double fHigh = 0.0;  ///< highest f1 with a stable lock
    double width() const { return locks ? fHigh - fLow : 0.0; }
};

/// Locking range in f1 for a fixed injection set.  Uses the extrema of g:
/// a lock exists iff (f1-f0)/f0 lies within [gMin, gMax].
LockingRange lockingRange(const PpvModel& model, const std::vector<Injection>& injections,
                          std::size_t gridSize = 1024);

struct LockingRangePoint {
    double amplitude = 0.0;
    LockingRange range;
};

/// Fig. 7: sweep the amplitude of `unitInjection` (given at amplitude 1) and
/// report the locking range at each amplitude.  g is linear in the
/// amplitude, so one unit-amplitude GAE gives every point: the range agrees
/// with lockingRange() of the scaled injection to rounding.
std::vector<LockingRangePoint> lockingRangeVsAmplitude(const PpvModel& model,
                                                       const Injection& unitInjection,
                                                       const Vec& amplitudes,
                                                       std::size_t gridSize = 1024);

struct PhaseErrorPoint {
    double f1 = 0.0;
    double detune = 0.0;  ///< (f1-f0)/f0
    /// Stable lock phases at this detuning, matched against zero-detuning
    /// references; errors[i] = cyclic distance of phases[i] to its reference.
    std::vector<double> phases;
    std::vector<double> references;
    std::vector<double> errors;
};

/// Fig. 8: lock phases and their deviation from the zero-detuning reference
/// phases, swept over f1.  Points outside the locking range have empty
/// phase lists.
std::vector<PhaseErrorPoint> lockPhaseErrorSweep(const PpvModel& model,
                                                 const std::vector<Injection>& injections,
                                                 const Vec& f1Grid, std::size_t gridSize = 1024);

struct AmplitudeSweepPoint {
    double amplitude = 0.0;
    std::vector<GaeEquilibrium> equilibria;  ///< all equilibria at this amplitude
    std::vector<double> stablePhases() const;
};

/// Figs. 11/14: sweep the amplitude of one injection (given at amplitude 1)
/// while the others stay fixed; report all GAE equilibria at each amplitude.
std::vector<AmplitudeSweepPoint> sweepInjectionAmplitude(const PpvModel& model, double f1,
                                                         const std::vector<Injection>& fixed,
                                                         const Injection& unitVarying,
                                                         const Vec& amplitudes,
                                                         std::size_t gridSize = 1024);

struct IntersectionSummary {
    double amplitude = 0.0;
    std::size_t total = 0;   ///< intersections of LHS with RHS over one cycle
    std::size_t stable = 0;  ///< of which stable
};

/// Figs. 5/10: count LHS/RHS intersections of eq. (5) while scaling
/// `unitInjection`, with `fixed` injections held constant.  The SHIL onset
/// (Fig. 5: A ~ 70 uA -> 4 intersections, 2 stable) falls out directly.
std::vector<IntersectionSummary> countIntersectionsVsAmplitude(
    const PpvModel& model, double f1, const std::vector<Injection>& fixed,
    const Injection& unitInjection, const Vec& amplitudes, std::size_t gridSize = 1024);

}  // namespace phlogon::core
