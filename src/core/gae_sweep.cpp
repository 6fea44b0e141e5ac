#include "core/gae_sweep.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/parallel.hpp"
#include "obs/trace.hpp"

namespace phlogon::core {

double phaseDistance(double a, double b) {
    const double d = std::abs(num::wrap01(a) - num::wrap01(b));
    return std::min(d, 1.0 - d);
}

LockingRange lockingRange(const PpvModel& model, const std::vector<Injection>& injections,
                          std::size_t gridSize) {
    OBS_SPAN("gae.sweep.lockingRange");
    // g does not depend on f1 (only the LHS does), so build the GAE at f0.
    const Gae gae(model, model.f0(), injections, gridSize);
    LockingRange r;
    if (gae.gMax() <= gae.gMin()) return r;  // zero injection: no lock
    r.locks = true;
    r.fLow = model.f0() * (1.0 + gae.gMin());
    r.fHigh = model.f0() * (1.0 + gae.gMax());
    return r;
}

std::vector<LockingRangePoint> lockingRangeVsAmplitude(const PpvModel& model,
                                                       const Injection& unitInjection,
                                                       const Vec& amplitudes,
                                                       std::size_t gridSize) {
    OBS_SPAN("gae.sweep.lockingRangeVsAmplitude");
    // g scales linearly with the injection amplitude; one unit-amplitude GAE
    // gives the range at every amplitude.
    const Gae unit(model, model.f0(), {unitInjection}, gridSize);
    std::vector<LockingRangePoint> out(amplitudes.size());
    for (std::size_t i = 0; i < amplitudes.size(); ++i) {
        const double a = amplitudes[i];
        out[i].amplitude = a;
        if (a > 0 && unit.gMax() > unit.gMin()) {
            out[i].range.locks = true;
            out[i].range.fLow = model.f0() * (1.0 + a * unit.gMin());
            out[i].range.fHigh = model.f0() * (1.0 + a * unit.gMax());
        }
    }
    return out;
}

std::vector<PhaseErrorPoint> lockPhaseErrorSweep(const PpvModel& model,
                                                 const std::vector<Injection>& injections,
                                                 const Vec& f1Grid, std::size_t gridSize) {
    OBS_SPAN("gae.sweep.phaseError");
    // Zero-detuning references.
    const Gae ref(model, model.f0(), injections, gridSize);
    std::vector<double> refPhases;
    for (const GaeEquilibrium& e : ref.stableEquilibria()) refPhases.push_back(e.dphi);

    return num::parallelMap(f1Grid, [&](double f1) {
        PhaseErrorPoint p;
        p.f1 = f1;
        p.detune = (f1 - model.f0()) / model.f0();
        const Gae gae(model, f1, injections, gridSize);
        for (const GaeEquilibrium& e : gae.stableEquilibria()) {
            double bestErr = 1.0;
            double bestRef = 0.0;
            for (double r : refPhases) {
                const double d = phaseDistance(e.dphi, r);
                if (d < bestErr) {
                    bestErr = d;
                    bestRef = r;
                }
            }
            p.phases.push_back(e.dphi);
            p.references.push_back(bestRef);
            p.errors.push_back(bestErr);
        }
        return p;
    });
}

std::vector<double> AmplitudeSweepPoint::stablePhases() const {
    std::vector<double> out;
    for (const GaeEquilibrium& e : equilibria)
        if (e.stable) out.push_back(e.dphi);
    return out;
}

std::vector<AmplitudeSweepPoint> sweepInjectionAmplitude(const PpvModel& model, double f1,
                                                         const std::vector<Injection>& fixed,
                                                         const Injection& unitVarying,
                                                         const Vec& amplitudes,
                                                         std::size_t gridSize) {
    OBS_SPAN("gae.sweep.injectionAmplitude");
    return num::parallelMap(amplitudes, [&](double a) {
        std::vector<Injection> injections = fixed;
        injections.push_back(unitVarying.scaled(a));
        AmplitudeSweepPoint p;
        p.amplitude = a;
        p.equilibria = Gae(model, f1, injections, gridSize).equilibria();
        return p;
    });
}

std::vector<IntersectionSummary> countIntersectionsVsAmplitude(
    const PpvModel& model, double f1, const std::vector<Injection>& fixed,
    const Injection& unitInjection, const Vec& amplitudes, std::size_t gridSize) {
    OBS_SPAN("gae.sweep.intersections");
    return num::parallelMap(amplitudes, [&](double a) {
        std::vector<Injection> injections = fixed;
        injections.push_back(unitInjection.scaled(a));
        const auto eq = Gae(model, f1, injections, gridSize).equilibria();
        IntersectionSummary s;
        s.amplitude = a;
        s.total = eq.size();
        s.stable = static_cast<std::size_t>(
            std::count_if(eq.begin(), eq.end(), [](const GaeEquilibrium& e) { return e.stable; }));
        return s;
    });
}

}  // namespace phlogon::core
