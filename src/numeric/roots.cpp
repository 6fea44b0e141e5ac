#include "numeric/roots.hpp"

#include <algorithm>
#include <cmath>

namespace phlogon::num {

std::optional<double> brent(const ScalarFn& f, double a, double b, double tol, int maxIter) {
    double fa = f(a), fb = f(b);
    if (fa == 0.0) return a;
    if (fb == 0.0) return b;
    if (fa * fb > 0.0) return std::nullopt;
    if (std::abs(fa) < std::abs(fb)) {
        std::swap(a, b);
        std::swap(fa, fb);
    }
    double c = a, fc = fa, d = b - a;
    bool mflag = true;
    for (int i = 0; i < maxIter; ++i) {
        if (fb == 0.0 || std::abs(b - a) < tol) return b;
        double s;
        if (fa != fc && fb != fc) {
            // Inverse quadratic interpolation.
            s = a * fb * fc / ((fa - fb) * (fa - fc)) + b * fa * fc / ((fb - fa) * (fb - fc)) +
                c * fa * fb / ((fc - fa) * (fc - fb));
        } else {
            // Secant.
            s = b - fb * (b - a) / (fb - fa);
        }
        const double lo = (3.0 * a + b) / 4.0;
        const bool cond1 = (s < std::min(lo, b) || s > std::max(lo, b));
        const bool cond2 = mflag && std::abs(s - b) >= std::abs(b - c) / 2.0;
        const bool cond3 = !mflag && std::abs(s - b) >= std::abs(c - d) / 2.0;
        const bool cond4 = mflag && std::abs(b - c) < tol;
        const bool cond5 = !mflag && std::abs(c - d) < tol;
        if (cond1 || cond2 || cond3 || cond4 || cond5) {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        const double fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if (fa * fs < 0.0) {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if (std::abs(fa) < std::abs(fb)) {
            std::swap(a, b);
            std::swap(fa, fb);
        }
    }
    return b;
}

std::vector<double> findAllRootsPeriodic(const ScalarFn& f, double lo, double period,
                                         std::size_t gridPoints, double tol,
                                         double minSeparation) {
    std::vector<double> roots;
    if (gridPoints < 2 || !(period > 0)) return roots;
    const double h = period / static_cast<double>(gridPoints);
    // Sample once around the cycle; the last bracket wraps back onto the
    // first sample's value so the seam is covered by exactly one interval.
    std::vector<double> fs(gridPoints);
    for (std::size_t i = 0; i < gridPoints; ++i) fs[i] = f(lo + h * static_cast<double>(i));
    for (std::size_t i = 0; i < gridPoints; ++i) {
        const double xi = lo + h * static_cast<double>(i);
        const double xj = lo + h * static_cast<double>(i + 1);
        const double fNext = (i + 1 == gridPoints) ? fs[0] : fs[i + 1];
        if (fs[i] == 0.0) {
            roots.push_back(xi);
        } else if (fs[i] * fNext < 0.0) {
            if (auto r = brent(f, xi, xj, tol)) {
                double x = *r;
                if (x >= lo + period) x -= period;  // seam bracket may polish past the end
                roots.push_back(x);
            }
        }
    }
    std::sort(roots.begin(), roots.end());
    std::vector<double> merged;
    for (double r : roots) {
        if (merged.empty() || r - merged.back() > minSeparation) merged.push_back(r);
    }
    // Cyclic merge: a root straddling the seam can polish to both ~lo and
    // ~lo+period depending on the bracket; keep the representative near lo.
    if (merged.size() > 1 && (merged.front() + period) - merged.back() <= minSeparation)
        merged.pop_back();
    return merged;
}

}  // namespace phlogon::num
