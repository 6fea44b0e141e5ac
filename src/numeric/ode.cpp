#include "numeric/ode.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/rkf45_tableau.hpp"
#include "obs/metrics.hpp"

namespace phlogon::num {

// Cash-Karp coefficients shared with numeric/batch_ode.cpp and the SIMD
// kernels.
using namespace cashkarp;

OdeSolution rkf45(const OdeRhs& f, const Vec& y0, double t0, double t1, const OdeOptions& opt) {
    OdeSolution sol;
    const std::size_t n = y0.size();
    double t = t0;
    Vec y = y0;
    sol.t.push_back(t);
    sol.y.push_back(y);

    const double span = t1 - t0;
    if (!(span > 0)) {
        sol.ok = true;
        return sol;
    }
    double h = opt.initialStep > 0 ? opt.initialStep : span / 1000.0;
    if (opt.maxStep > 0) h = std::min(h, opt.maxStep);

    // Once-per-solve counter flush (not per step): accepted steps are the
    // trajectory length minus the initial point.
    struct CounterFlush {
        const OdeSolution& sol;
        ~CounterFlush() {
            PHLOGON_ADD_METRIC("ode.steps.accepted",
                               sol.t.empty() ? 0 : sol.t.size() - 1);
            PHLOGON_ADD_METRIC("ode.steps.rejected", sol.rejectedSteps);
        }
    } flush{sol};

    Vec k1(n), k2(n), k3(n), k4(n), k5(n), k6(n), yt(n), y5(n), err(n);
    for (std::size_t step = 0; step < opt.maxSteps; ++step) {
        if (t >= t1) {
            sol.ok = true;
            return sol;
        }
        h = std::min(h, t1 - t);
        k1 = f(t, y);
        yt = y;
        axpy(h * B21, k1, yt);
        k2 = f(t + A2 * h, yt);
        yt = y;
        axpy(h * B31, k1, yt);
        axpy(h * B32, k2, yt);
        k3 = f(t + A3 * h, yt);
        yt = y;
        axpy(h * B41, k1, yt);
        axpy(h * B42, k2, yt);
        axpy(h * B43, k3, yt);
        k4 = f(t + A4 * h, yt);
        yt = y;
        axpy(h * B51, k1, yt);
        axpy(h * B52, k2, yt);
        axpy(h * B53, k3, yt);
        axpy(h * B54, k4, yt);
        k5 = f(t + A5 * h, yt);
        yt = y;
        axpy(h * B61, k1, yt);
        axpy(h * B62, k2, yt);
        axpy(h * B63, k3, yt);
        axpy(h * B64, k4, yt);
        axpy(h * B65, k5, yt);
        k6 = f(t + A6 * h, yt);

        // 5th-order solution and embedded 4th-order error estimate.
        y5 = y;
        axpy(h * C1, k1, y5);
        axpy(h * C3, k3, y5);
        axpy(h * C4, k4, y5);
        axpy(h * C6, k6, y5);

        double errNorm = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double e = h * ((C1 - D1) * k1[i] + (C3 - D3) * k3[i] + (C4 - D4) * k4[i] -
                                  D5 * k5[i] + (C6 - D6) * k6[i]);
            const double sc = opt.absTol + opt.relTol * std::max(std::abs(y[i]), std::abs(y5[i]));
            errNorm = std::max(errNorm, std::abs(e) / sc);
        }

        if (!std::isfinite(errNorm)) {
            h *= 0.25;
            ++sol.rejectedSteps;
            if (h < 1e-300) return sol;
            continue;
        }
        if (errNorm <= 1.0) {
            t += h;
            y = y5;
            sol.t.push_back(t);
            sol.y.push_back(y);
            const double grow = errNorm > 0 ? 0.9 * std::pow(errNorm, -0.2) : 5.0;
            h *= std::clamp(grow, 0.2, 5.0);
            if (opt.maxStep > 0) h = std::min(h, opt.maxStep);
        } else {
            ++sol.rejectedSteps;
            h *= std::clamp(0.9 * std::pow(errNorm, -0.25), 0.1, 0.9);
            if (opt.maxStep > 0) h = std::min(h, opt.maxStep);
        }
    }
    return sol;  // maxSteps exhausted: ok stays false
}

OdeSolution1 rkf45Scalar(const OdeRhs1& f, double y0, double t0, double t1,
                         const OdeOptions& opt) {
    const OdeRhs wrap = [&f](double t, const Vec& y) { return Vec{f(t, y[0])}; };
    const OdeSolution s = rkf45(wrap, Vec{y0}, t0, t1, opt);
    OdeSolution1 out;
    out.ok = s.ok;
    out.rejectedSteps = s.rejectedSteps;
    out.t = s.t;
    out.y.reserve(s.y.size());
    for (const Vec& v : s.y) out.y.push_back(v[0]);
    return out;
}

OdeSolution rk4(const OdeRhs& f, const Vec& y0, double t0, double t1, std::size_t nSteps) {
    OdeSolution sol;
    Vec y = y0;
    double t = t0;
    const double h = (t1 - t0) / static_cast<double>(nSteps);
    sol.t.push_back(t);
    sol.y.push_back(y);
    Vec yt;
    for (std::size_t i = 0; i < nSteps; ++i) {
        const Vec k1 = f(t, y);
        yt = y;
        axpy(0.5 * h, k1, yt);
        const Vec k2 = f(t + 0.5 * h, yt);
        yt = y;
        axpy(0.5 * h, k2, yt);
        const Vec k3 = f(t + 0.5 * h, yt);
        yt = y;
        axpy(h, k3, yt);
        const Vec k4 = f(t + h, yt);
        for (std::size_t j = 0; j < y.size(); ++j)
            y[j] += h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        t = t0 + h * static_cast<double>(i + 1);
        sol.t.push_back(t);
        sol.y.push_back(y);
    }
    sol.ok = true;
    return sol;
}

}  // namespace phlogon::num
