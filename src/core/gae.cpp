#include "core/gae.hpp"

#include <algorithm>
#include <stdexcept>

#include "numeric/fft.hpp"
#include "numeric/roots.hpp"

namespace phlogon::core {

Gae::Gae(const PpvModel& model, double f1, const std::vector<Injection>& injections,
         std::size_t gridSize) {
    if (!model.valid()) throw std::invalid_argument("Gae: invalid PpvModel");
    if (!(f1 > 0)) throw std::invalid_argument("Gae: f1 must be positive");
    if (gridSize < 3) throw std::invalid_argument("Gae: gridSize must be >= 3");
    f0_ = model.f0();
    f1_ = f1;

    // g(dphi_m) = sum over injections of the averaged projection
    //   (1/N) sum_i v(psi_i + dphi_m) * b(psi_i [, dphi_m]).
    // Phase-independent injections reduce to a cyclic cross-correlation
    // (evaluated via FFT); phase-dependent ones (latch-output feedback
    // through gates) need the direct double loop.
    gGrid_.assign(gridSize, 0.0);
    Vec theta(gridSize), vSamples(gridSize);
    for (std::size_t i = 0; i < gridSize; ++i)
        theta[i] = static_cast<double>(i) / static_cast<double>(gridSize);
    const double invN = 1.0 / static_cast<double>(gridSize);
    for (const Injection& inj : injections) {
        if (inj.unknownIndex >= model.size())
            throw std::invalid_argument("Gae: injection index out of range");
        model.ppvMany(inj.unknownIndex, theta.data(), vSamples.data(), gridSize);
        if (inj.isPhaseDependent()) {
            for (std::size_t m = 0; m < gridSize; ++m) {
                const double dphi = static_cast<double>(m) * invN;
                double acc = 0.0;
                for (std::size_t i = 0; i < gridSize; ++i) {
                    const double psi = static_cast<double>(i) * invN;
                    acc += vSamples[(i + m) % gridSize] * inj.currentAtPsiDphi(psi, dphi);
                }
                gGrid_[m] += acc * invN;
            }
        } else {
            const Vec b = inj.sampleGrid(gridSize);
            const Vec corr = num::cyclicCorrelation(vSamples, b);
            for (std::size_t i = 0; i < gridSize; ++i) gGrid_[i] += corr[i];
        }
    }
    const auto [mn, mx] = std::minmax_element(gGrid_.begin(), gGrid_.end());
    gMin_ = *mn;
    gMax_ = *mx;
    gSpline_ = num::PeriodicCubicSpline(gGrid_);
}

std::vector<GaeEquilibrium> Gae::equilibria() const {
    std::vector<GaeEquilibrium> out;
    const auto fn = [this](double dphi) { return rhs(dphi); };
    // Periodic scan: the seam bracket [1 - h, 1) closes against the sample at
    // 0, so a lock phase at the Δφ = 0/1 seam is reported exactly once.
    const std::vector<double> roots = num::findAllRootsPeriodic(fn, 0.0, 1.0, 1440);
    out.reserve(roots.size());
    for (double r : roots) {
        GaeEquilibrium eq;
        eq.dphi = num::wrap01(r);
        eq.gSlope = gDerivative(eq.dphi);
        eq.stable = eq.gSlope < 0.0;
        out.push_back(eq);
    }
    return out;
}

std::vector<GaeEquilibrium> Gae::stableEquilibria() const {
    std::vector<GaeEquilibrium> out;
    for (const GaeEquilibrium& e : equilibria())
        if (e.stable) out.push_back(e);
    return out;
}

bool Gae::locks() const { return !stableEquilibria().empty(); }

}  // namespace phlogon::core
