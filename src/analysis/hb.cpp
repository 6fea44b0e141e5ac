#include "analysis/hb.hpp"

#include <chrono>
#include <cmath>
#include <numbers>

#include "numeric/fft.hpp"
#include "numeric/interp.hpp"
#include "numeric/lu.hpp"
#include "obs/trace.hpp"

namespace phlogon::an {

namespace {

using num::LuFactor;
using num::Matrix;
using num::Vec;

/// Trigonometric upsampling of per-component periodic samples.
Vec trigResample(const Vec& samples, std::size_t m) {
    const std::size_t n = samples.size();
    const num::CVec c = num::fourierCoefficients(samples, n / 2);
    Vec out(m);
    for (std::size_t i = 0; i < m; ++i) {
        const double t = static_cast<double>(i) / static_cast<double>(m);
        double v = c[0].real();
        // Harmonics up to n/2 (the Nyquist term is halved to keep the
        // interpolant real and minimal-norm).
        for (std::size_t k = 1; k < c.size(); ++k) {
            const double w = (2 * k == n) ? 0.5 : 1.0;
            v += 2.0 * w *
                 (c[k].real() * std::cos(2.0 * std::numbers::pi * k * t) -
                  c[k].imag() * std::sin(2.0 * std::numbers::pi * k * t));
        }
        out[i] = v;
    }
    return out;
}

/// harmonicBalancePss without the wall clock, which the caller sets once for
/// every exit.
PssResult solveHb(const ckt::Dae& dae, const HbOptions& opt) {
    PssResult res;
    const std::size_t n = dae.size();
    const std::size_t nc = opt.nColloc;
    if (nc < 8 || nc % 2 != 0) {
        res.message = "nColloc must be even and >= 8";
        return res;
    }

    // ---- warm start (shared with shooting) --------------------------------
    const WarmStart ws = warmStart(dae, opt.freqHint, opt.warmupCycles, opt.stepsPerCycleWarmup,
                                   opt.kick, opt.phaseUnknown, TransientOptions{}.newton);
    res.counters += ws.counters;
    if (!ws.ok) {
        res.message = ws.message;
        return res;
    }
    const auto p = static_cast<std::size_t>(ws.phaseUnknown);
    double period = ws.period;
    // Seed collocation samples from the warm-up cycle that ends at the seed
    // crossing.
    std::vector<Vec> xc(nc, Vec(n));
    for (std::size_t i = 0; i < n; ++i) {
        const Vec u =
            num::resampleUniform(ws.record.t, ws.record.column(i), ws.tSeed - period, period, nc);
        for (std::size_t k = 0; k < nc; ++k) xc[k][i] = u[k];
    }

    // ---- unit-period spectral differentiation matrix ----------------------
    Matrix dhat(nc, nc);
    for (std::size_t k = 0; k < nc; ++k)
        for (std::size_t j = 0; j < nc; ++j) {
            if (k == j) continue;
            const long diff = static_cast<long>(k) - static_cast<long>(j);
            const double sgn = (diff % 2 == 0) ? 1.0 : -1.0;
            dhat(k, j) = std::numbers::pi * sgn /
                         std::tan(std::numbers::pi * static_cast<double>(diff) /
                                  static_cast<double>(nc));
        }

    // ---- Newton on (X, T) --------------------------------------------------
    const std::size_t big = n * nc + 1;
    std::vector<Vec> qs(nc), fs(nc);
    std::vector<Matrix> cs(nc), gs(nc);
    const auto evalAll = [&](const std::vector<Vec>& xs) {
        for (std::size_t k = 0; k < nc; ++k) dae.eval(0.0, xs[k], qs[k], fs[k], &cs[k], &gs[k]);
        res.counters.rhsEvals += nc;
        res.counters.jacEvals += nc;
    };
    const auto residual = [&](double T, Vec& r) {
        r.assign(big, 0.0);
        for (std::size_t k = 0; k < nc; ++k)
            for (std::size_t i = 0; i < n; ++i) {
                double dq = 0.0;
                for (std::size_t j = 0; j < nc; ++j) {
                    const double d = dhat(k, j);
                    if (d != 0.0) dq += d * qs[j][i];
                }
                r[k * n + i] = dq / T + fs[k][i];
            }
        // Phase row: sample 0 of unknown p sits at its own collocation mean.
        double meanP = 0.0;
        for (std::size_t k = 0; k < nc; ++k) meanP += xc[k][p];
        r[big - 1] = xc[0][p] - meanP / static_cast<double>(nc);
    };

    Vec r(big);
    bool converged = false;
    double rNorm = 0.0;
    for (int it = 0; it < opt.maxIter; ++it) {
        evalAll(xc);
        residual(period, r);
        rNorm = num::normInf(r);
        if (rNorm < opt.tol) {
            converged = true;
            break;
        }
        // Assemble the dense Jacobian.
        Matrix jac(big, big);
        for (std::size_t k = 0; k < nc; ++k) {
            for (std::size_t j = 0; j < nc; ++j) {
                const double d = (k == j) ? 0.0 : dhat(k, j) / period;
                if (d != 0.0)
                    for (std::size_t i = 0; i < n; ++i)
                        for (std::size_t l = 0; l < n; ++l)
                            jac(k * n + i, j * n + l) += d * cs[j](i, l);
            }
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t l = 0; l < n; ++l)
                    jac(k * n + i, k * n + l) += gs[k](i, l);
            // dr/dT = -(dq-part)/T = -(r - f)/T.
            for (std::size_t i = 0; i < n; ++i)
                jac(k * n + i, big - 1) = -(r[k * n + i] - fs[k][i]) / period;
        }
        // Phase row: +1 at sample 0 of unknown p, -1/N at every sample of p.
        jac(big - 1, p) = 1.0;
        for (std::size_t k = 0; k < nc; ++k)
            jac(big - 1, k * n + p) -= 1.0 / static_cast<double>(nc);
        const auto lu = LuFactor::factor(jac);
        if (!lu) {
            res.message = "HB: singular collocation Jacobian";
            return res;
        }
        // One factorization per Newton update (the converged pass stops
        // before factoring), so the two counts agree.
        ++res.counters.luFactorizations;
        ++res.counters.newtonIters;
        Vec dz = lu->solve(r);
        // Damping: clamp state updates and the period update.
        double scale = 1.0;
        for (std::size_t i = 0; i + 1 < big; ++i)
            scale = std::max(scale, std::abs(dz[i]) / 0.5);
        scale = std::max(scale, std::abs(dz[big - 1]) / (0.1 * period));
        const double damp = 1.0 / scale;
        for (std::size_t k = 0; k < nc; ++k)
            for (std::size_t i = 0; i < n; ++i) xc[k][i] -= damp * dz[k * n + i];
        period -= damp * dz[big - 1];
        if (!(period > 0)) {
            res.message = "HB: period became non-positive";
            return res;
        }
        res.shootIterations = it + 1;
    }
    if (!converged) {
        res.message = "HB did not converge (residual " + std::to_string(rNorm) + ")";
        return res;
    }

    // ---- package as a PssResult -------------------------------------------
    res.period = period;
    res.f0 = 1.0 / period;
    res.phaseUnknown = ws.phaseUnknown;
    res.shootResidual = rNorm;
    // Trig-upsample to the uniform output grid and a fine grid for PPV.
    const std::size_t fine = std::max<std::size_t>(400, 2 * nc);
    res.xs.assign(opt.nSamples, Vec(n));
    res.xFine.assign(fine + 1, Vec(n));
    for (std::size_t i = 0; i < n; ++i) {
        Vec col(nc);
        for (std::size_t k = 0; k < nc; ++k) col[k] = xc[k][i];
        const Vec uo = trigResample(col, opt.nSamples);
        for (std::size_t k = 0; k < opt.nSamples; ++k) res.xs[k][i] = uo[k];
        const Vec uf = trigResample(col, fine);
        for (std::size_t k = 0; k < fine; ++k) res.xFine[k][i] = uf[k];
        res.xFine[fine][i] = uf[0];  // periodic wrap point
    }
    res.tFine = num::linspace(0.0, period, fine + 1);
    res.ok = true;
    res.message = "ok";
    return res;
}

}  // namespace

PssResult harmonicBalancePss(const ckt::Dae& dae, const HbOptions& opt) {
    OBS_SPAN("hb.solve");
    const auto wallStart = std::chrono::steady_clock::now();
    PssResult res = solveHb(dae, opt);
    res.counters.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
    return res;
}

}  // namespace phlogon::an
