#include "core/injection.hpp"

#include <cmath>
#include <numbers>
#include <utility>

#include "numeric/interp.hpp"

namespace phlogon::core {

Injection Injection::tone(std::size_t unknownIndex, double amplitude, int harmonic,
                          double phaseCycles, std::string label) {
    Injection inj;
    inj.unknownIndex = unknownIndex;
    inj.label = std::move(label);
    inj.currentAtPsi = [amplitude, harmonic, phaseCycles](double psi) {
        return amplitude *
               std::cos(2.0 * std::numbers::pi * (static_cast<double>(harmonic) * psi - phaseCycles));
    };
    return inj;
}

Injection Injection::sampled(std::size_t unknownIndex, Vec samples, std::string label) {
    Injection inj;
    inj.unknownIndex = unknownIndex;
    inj.label = std::move(label);
    inj.currentAtPsi = [interp = num::PeriodicLinear(std::move(samples))](double psi) {
        return interp(psi);
    };
    return inj;
}

Injection Injection::phaseDependent(std::size_t unknownIndex,
                                    std::function<double(double, double)> fn, std::string label) {
    Injection inj;
    inj.unknownIndex = unknownIndex;
    inj.label = std::move(label);
    inj.currentAtPsiDphi = std::move(fn);
    return inj;
}

Injection Injection::scaled(double s) const {
    Injection inj;
    inj.unknownIndex = unknownIndex;
    inj.label = label;
    if (isPhaseDependent()) {
        inj.currentAtPsiDphi = [fn = currentAtPsiDphi, s](double psi, double dphi) {
            return s * fn(psi, dphi);
        };
    } else {
        inj.currentAtPsi = [fn = currentAtPsi, s](double psi) { return s * fn(psi); };
    }
    return inj;
}

Vec Injection::sampleGrid(std::size_t n) const {
    Vec out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = currentAtPsi(static_cast<double>(i) / static_cast<double>(n));
    return out;
}

}  // namespace phlogon::core
