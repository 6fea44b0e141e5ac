#include "analysis/waveform.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/interp.hpp"

namespace phlogon::an {

Vec risingCrossings(const Vec& t, const Vec& x, double level) {
    Vec out;
    for (std::size_t i = 0; i + 1 < x.size(); ++i) {
        const double a = x[i] - level;
        const double b = x[i + 1] - level;
        if (a < 0.0 && b >= 0.0) {
            const double f = (b - a) != 0.0 ? -a / (b - a) : 0.0;
            out.push_back(t[i] + f * (t[i + 1] - t[i]));
        }
    }
    return out;
}

PeriodEstimate estimatePeriod(const Vec& t, const Vec& x, double level, std::size_t maxCycles) {
    PeriodEstimate est;
    const Vec cr = risingCrossings(t, x, level);
    if (cr.size() < 3) return est;
    const std::size_t use = std::min(maxCycles + 1, cr.size());
    const std::size_t first = cr.size() - use;
    double sum = 0.0;
    for (std::size_t i = first; i + 1 < cr.size(); ++i) sum += cr[i + 1] - cr[i];
    const std::size_t cycles = use - 1;
    est.period = sum / static_cast<double>(cycles);
    if (!(est.period > 0)) return est;
    est.frequency = 1.0 / est.period;
    double dev = 0.0;
    for (std::size_t i = first; i + 1 < cr.size(); ++i)
        dev = std::max(dev, std::abs(cr[i + 1] - cr[i] - est.period));
    est.jitter = dev;
    est.cyclesUsed = cycles;
    est.ok = true;
    return est;
}

double peakPosition(const Vec& samples) {
    const std::size_t n = samples.size();
    if (n == 0) return 0.0;
    std::size_t k = 0;
    for (std::size_t i = 1; i < n; ++i)
        if (samples[i] > samples[k]) k = i;
    // Parabolic refinement through (k-1, k, k+1), cyclic.
    const double ym = samples[(k + n - 1) % n];
    const double y0 = samples[k];
    const double yp = samples[(k + 1) % n];
    const double denom = ym - 2.0 * y0 + yp;
    double frac = 0.0;
    if (std::abs(denom) > 1e-300) frac = 0.5 * (ym - yp) / denom;
    frac = std::clamp(frac, -0.5, 0.5);
    return num::wrap01((static_cast<double>(k) + frac) / static_cast<double>(n));
}

double mean(const Vec& x) {
    if (x.empty()) return 0.0;
    double s = 0.0;
    for (double v : x) s += v;
    return s / static_cast<double>(x.size());
}

double peakToPeak(const Vec& x) {
    if (x.empty()) return 0.0;
    const auto [mn, mx] = std::minmax_element(x.begin(), x.end());
    return *mx - *mn;
}

}  // namespace phlogon::an
