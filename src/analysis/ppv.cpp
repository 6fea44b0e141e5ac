#include "analysis/ppv.hpp"

#include <cmath>
#include <numbers>
#include <utility>

#include "analysis/trap_util.hpp"
#include "numeric/interp.hpp"
#include "numeric/lu.hpp"
#include "obs/trace.hpp"

namespace phlogon::an {

namespace {

using num::LuFactor;
using num::Matrix;
using num::Vec;

/// Time domain: backward power-iteration sweeps (periods) at most, and the
/// direction-convergence tolerance between consecutive sweeps.
constexpr int kMaxPeriods = 80;
constexpr double kSweepTol = 1e-10;
/// Frequency domain: collocation points over the period.
constexpr std::size_t kColloc = 64;
static_assert(kColloc % 2 == 0 && kColloc >= 4, "the spectral derivative needs an even grid");
/// Output samples over one period, both methods.
constexpr std::size_t kOutputSamples = 256;

/// Resample vector samples given at (possibly midpoint) times over one period
/// onto a uniform nSamples grid, per component, periodically.
std::vector<Vec> resamplePeriodic(const Vec& times, const std::vector<Vec>& vals, double period,
                                  std::size_t nSamples) {
    const std::size_t n = vals.front().size();
    const std::size_t m = vals.size();
    std::vector<Vec> out(nSamples, Vec(n));
    for (std::size_t c = 0; c < n; ++c) {
        // Extend the series by one wrapped point on each side for clean
        // interpolation across the period boundary.
        Vec t(m + 2), y(m + 2);
        t[0] = times[m - 1] - period;
        y[0] = vals[m - 1][c];
        for (std::size_t k = 0; k < m; ++k) {
            t[k + 1] = times[k];
            y[k + 1] = vals[k][c];
        }
        t[m + 1] = times[0] + period;
        y[m + 1] = vals[0][c];
        const Vec u = num::resampleUniform(t, y, 0.0, period, nSamples);
        for (std::size_t k = 0; k < nSamples; ++k) out[k][c] = u[k];
    }
    return out;
}

}  // namespace

num::Vec PpvResult::component(std::size_t idx) const {
    num::Vec out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i][idx];
    return out;
}

PpvResult extractPpvTimeDomain(const ckt::Dae& dae, const PssResult& pss) {
    OBS_SPAN("ppv.extract");
    PpvResult res;
    if (!pss.ok || pss.xFine.size() < 3) {
        res.message = "PSS solution not available";
        return res;
    }
    const std::size_t n = dae.size();
    const std::size_t m = pss.xFine.size() - 1;  // steps over the period
    const double period = pss.period;
    const double h = period / static_cast<double>(m);

    // Per-step matrices of the linearized propagation (TRAP with algebraic
    // rows collocated at the new point, matching the PSS integrator):
    //   M_k dx_{k+1} = N_k dx_k,  M_k = C_{k+1}/h + w G_{k+1},
    //                             N_k = C_k/h - (1-w) G_k.
    // The step LUs are refactored in place and each N_k is built in its slot.
    std::vector<LuFactor> mFactors(m);
    std::vector<Matrix> nMats(m);
    std::vector<bool> alg;
    {
        Vec q, f;
        Matrix cPrev, gPrev, cCur, gCur;
        Matrix mMat(n, n);
        dae.eval(0.0, pss.xFine[0], q, f, &cPrev, &gPrev);
        alg = detail::algebraicRows(cPrev);
        const double invH = 1.0 / h;
        for (std::size_t k = 0; k < m; ++k) {
            dae.eval(0.0, pss.xFine[k + 1], q, f, &cCur, &gCur);
            Matrix& nMat = nMats[k];
            nMat.resize(n, n);
            for (std::size_t r = 0; r < n; ++r) {
                const double w = detail::newWeight(alg, r);
                for (std::size_t c = 0; c < n; ++c) {
                    mMat(r, c) = cCur(r, c) * invH + w * gCur(r, c);
                    nMat(r, c) = cPrev(r, c) * invH - (1.0 - w) * gPrev(r, c);
                }
            }
            if (!mFactors[k].refactor(mMat)) {
                res.message = "singular step matrix in PPV extraction";
                return res;
            }
            std::swap(cPrev, cCur);
            std::swap(gPrev, gCur);
        }
    }

    // Backward power iteration on the discrete adjoint: w_k = N_k^T M_k^{-T} w_{k+1},
    // periodically wrapped.  All Floquet modes with |mu| < 1 decay under this
    // map; the phase mode (mu = 1) survives.
    Vec w(n);
    for (std::size_t i = 0; i < n; ++i) w[i] = std::cos(1.7 * static_cast<double>(i) + 0.4);
    double wn = num::norm2(w);
    w *= 1.0 / wn;

    // y = M_k^{-T} w and the solve's intermediate live in caller-owned
    // scratch, so a sweep allocates nothing.
    double mu = 0.0;
    Vec wPrev, y, work;
    int sweeps = 0;
    for (; sweeps < kMaxPeriods; ++sweeps) {
        wPrev = w;
        for (std::size_t k = m; k-- > 0;) {
            mFactors[k].solveTransposedInto(w, y, work);
            num::multTransposeInto(nMats[k], y, w);
        }
        const double norm = num::norm2(w);
        if (!(norm > 0) || !std::isfinite(norm)) {
            res.message = "adjoint iteration diverged";
            return res;
        }
        mu = num::dot(w, wPrev) > 0 ? norm : -norm;  // signed multiplier estimate
        w *= 1.0 / norm;
        const double delta = std::min(num::norm2(w - wPrev), num::norm2(w + wPrev));
        if (sweeps > 0 && delta < kSweepTol) {
            ++sweeps;
            break;
        }
    }
    res.sweepsUsed = sweeps;
    res.floquetMu = mu;

    // Final sweep: collect midpoint PPV samples v_{k+1/2} = M_k^{-T} w_{k+1} / h
    // and the adjoint grid values w_k for normalization.
    std::vector<Vec> vMid(m);
    std::vector<Vec> wGrid(m + 1);
    wGrid[m] = w;
    for (std::size_t k = m; k-- > 0;) {
        mFactors[k].solveTransposedInto(wGrid[k + 1], y, work);
        vMid[k] = (1.0 / h) * y;
        num::multTransposeInto(nMats[k], y, wGrid[k]);
    }

    // Normalization: the discrete phase readout requires w_k^T u_k = 1 with
    // u_k = d(xs)/dt at t_k (central differences, periodic).
    Vec cks(m);
    double cMean = 0.0;
    Vec u(n);
    for (std::size_t k = 0; k < m; ++k) {
        const Vec& xp = pss.xFine[k + 1];
        const Vec& xm = pss.xFine[k == 0 ? m - 1 : k - 1];
        for (std::size_t i = 0; i < n; ++i) u[i] = (xp[i] - xm[i]) / (2.0 * h);
        cks[k] = num::dot(wGrid[k], u);
        cMean += cks[k];
    }
    cMean /= static_cast<double>(m);
    if (!(std::abs(cMean) > 0)) {
        res.message = "degenerate normalization (w^T u == 0)";
        return res;
    }
    double spread = 0.0;
    for (std::size_t k = 0; k < m; ++k)
        spread = std::max(spread, std::abs(cks[k] / cMean - 1.0));
    res.normalizationSpread = spread;

    const double scale = 1.0 / cMean;
    for (auto& vk : vMid) vk *= scale;

    // Midpoint times -> uniform output grid.
    Vec tMid(m);
    for (std::size_t k = 0; k < m; ++k) tMid[k] = (static_cast<double>(k) + 0.5) * h;
    res.v = resamplePeriodic(tMid, vMid, period, kOutputSamples);
    res.period = period;
    res.f0 = 1.0 / period;
    res.ok = true;
    res.message = "ok";
    return res;
}

PpvResult extractPpvFrequencyDomain(const ckt::Dae& dae, const PssResult& pss) {
    OBS_SPAN("ppv.extract_fd");
    PpvResult res;
    if (!pss.ok || pss.xs.empty()) {
        res.message = "PSS solution not available";
        return res;
    }
    const std::size_t n = dae.size();
    const std::size_t nc = kColloc;
    const double period = pss.period;

    // Collocation states: resample the PSS solution onto nc points.
    std::vector<Vec> xc(nc, Vec(n));
    {
        const std::size_t ns = pss.xs.size();
        for (std::size_t k = 0; k < nc; ++k) {
            const double pos = static_cast<double>(k) / static_cast<double>(nc);
            const double idx = pos * static_cast<double>(ns);
            const std::size_t i0 = static_cast<std::size_t>(idx) % ns;
            const std::size_t i1 = (i0 + 1) % ns;
            const double f = idx - std::floor(idx);
            for (std::size_t i = 0; i < n; ++i)
                xc[k][i] = pss.xs[i0][i] + f * (pss.xs[i1][i] - pss.xs[i0][i]);
        }
    }

    // Spectral differentiation matrix for T-periodic functions on nc points:
    // (Df)_k = f'(t_k),  D_kj = (pi/T) * (-1)^(k-j) / tan(pi (k-j)/nc), k != j.
    Matrix d(nc, nc);
    for (std::size_t k = 0; k < nc; ++k)
        for (std::size_t j = 0; j < nc; ++j) {
            if (k == j) continue;
            const long diff = static_cast<long>(k) - static_cast<long>(j);
            const double sgn = (diff % 2 == 0) ? 1.0 : -1.0;
            d(k, j) = std::numbers::pi / period * sgn /
                      std::tan(std::numbers::pi * static_cast<double>(diff) / static_cast<double>(nc));
        }

    // Assemble the adjoint operator  (L v)_k = C_k^T sum_j D_kj v_j - G_k^T v_k.
    std::vector<Matrix> cMats(nc), gMats(nc);
    {
        Vec q, f;
        for (std::size_t k = 0; k < nc; ++k) {
            Matrix c, g;
            dae.eval(0.0, xc[k], q, f, &c, &g);
            cMats[k] = c.transposed();
            gMats[k] = g.transposed();
        }
    }
    const std::size_t big = n * nc;
    Matrix l(big, big);
    for (std::size_t k = 0; k < nc; ++k) {
        for (std::size_t j = 0; j < nc; ++j) {
            const double dkj = (k == j) ? 0.0 : d(k, j);
            if (dkj != 0.0) {
                for (std::size_t r = 0; r < n; ++r)
                    for (std::size_t c = 0; c < n; ++c)
                        l(k * n + r, j * n + c) += cMats[k](r, c) * dkj;
            }
        }
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c) l(k * n + r, k * n + c) -= gMats[k](r, c);
    }

    // Row-equilibrate (heterogeneous units), then pull out the null vector by
    // inverse iteration around 0.
    for (std::size_t r = 0; r < big; ++r) {
        double mx = 0.0;
        for (std::size_t c = 0; c < big; ++c) mx = std::max(mx, std::abs(l(r, c)));
        if (mx > 0)
            for (std::size_t c = 0; c < big; ++c) l(r, c) /= mx;
    }
    const auto eig = num::inverseIteration(l, 0.0, 400, 1e-13);
    if (!eig) {
        res.message = "inverse iteration on adjoint operator failed";
        return res;
    }
    std::vector<Vec> vc(nc, Vec(n));
    for (std::size_t k = 0; k < nc; ++k)
        for (std::size_t i = 0; i < n; ++i) vc[k][i] = eig->second[k * n + i];

    // Normalize with v_k^T C_k u_k = 1, u = spectral derivative of xs.
    std::vector<Vec> u(nc, Vec(n, 0.0));
    for (std::size_t k = 0; k < nc; ++k)
        for (std::size_t j = 0; j < nc; ++j) {
            if (k == j) continue;
            for (std::size_t i = 0; i < n; ++i) u[k][i] += d(k, j) * xc[j][i];
        }
    double cMean = 0.0;
    Vec cks(nc);
    {
        Vec q, f;
        for (std::size_t k = 0; k < nc; ++k) {
            Matrix c;
            dae.eval(0.0, xc[k], q, f, &c, nullptr);
            cks[k] = num::dot(vc[k], c * u[k]);
            cMean += cks[k];
        }
    }
    cMean /= static_cast<double>(nc);
    if (!(std::abs(cMean) > 0)) {
        res.message = "degenerate normalization in FD extraction";
        return res;
    }
    double spread = 0.0;
    for (std::size_t k = 0; k < nc; ++k)
        spread = std::max(spread, std::abs(cks[k] / cMean - 1.0));
    res.normalizationSpread = spread;
    for (auto& vk : vc) vk *= 1.0 / cMean;

    Vec tc(nc);
    for (std::size_t k = 0; k < nc; ++k)
        tc[k] = period * static_cast<double>(k) / static_cast<double>(nc);
    res.v = resamplePeriodic(tc, vc, period, kOutputSamples);
    res.period = period;
    res.f0 = 1.0 / period;
    res.floquetMu = 1.0;  // by construction (null vector)
    res.ok = true;
    res.message = "ok";
    return res;
}

}  // namespace phlogon::an
