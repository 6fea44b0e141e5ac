#include "analysis/pss.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <utility>

#include "analysis/dcop.hpp"
#include "analysis/step_solver.hpp"
#include "analysis/trap_util.hpp"
#include "analysis/waveform.hpp"
#include "numeric/interp.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::an {

namespace {

using num::LuFactor;
using num::Matrix;
using num::Vec;

/// TRAP steps per hinted warm-up cycle.
constexpr std::size_t kWarmupStepsPerCycle = 150;
/// Hinted cycles after which a warm-up that has not settled gives up.
constexpr std::size_t kMaxWarmupCycles = 105;
/// Shooting Newton: iteration cap and convergence tolerance on the
/// infinity-norm of the residual (state units).
constexpr int kMaxShootIter = 40;
constexpr double kShootTol = 1e-7;
/// Uniform samples of the returned steady state over one period.
constexpr std::size_t kOutputSamples = 256;

/// Pick the unknown with the largest swing over the stored trajectory,
/// preferring node voltages over branch currents.
int autoPhaseUnknown(const Dae& dae, const TransientResult& tr) {
    int best = -1;
    double bestSwing = 0.0;
    for (std::size_t i = 0; i < dae.size(); ++i) {
        const std::string& name = dae.netlist().unknownName(i);
        if (name.rfind("I(", 0) == 0) continue;  // skip branch currents
        const double swing = peakToPeak(tr.column(i));
        if (swing > bestSwing) {
            bestSwing = swing;
            best = static_cast<int>(i);
        }
    }
    return best;
}

/// Preallocated state for integratePeriod, reused across shooting
/// iterations: the implicit stepper (Newton workspace + DAE scratch), the
/// old-point values and the sensitivity-chain matrices/LU.
struct PeriodWorkspace {
    explicit PeriodWorkspace(const Dae& dae)
        : alg(detail::algebraicRows(dae.evalC(0.0, Vec(dae.size(), 0.0)))),
          stepper(dae, alg),
          mMat(dae.size(), dae.size()),
          nMat(dae.size(), dae.size()) {}

    std::vector<bool> alg;
    detail::ImplicitStepper stepper;
    Vec qk, fk;
    Matrix ck, gk;
    Matrix mMat, nMat, rhs;
    LuFactor sensLu;
};

/// Integrate `m` TRAP steps of size h from x0 (autonomous: t arbitrary),
/// propagating the n x (n+1) sensitivity `sens` = [dx/dx0 | dx/dT]; then
/// `meanRow` receives the derivative of the trapezoid mean of unknown p over
/// the period with respect to (x0, T).  Fills states (m+1 entries).  Returns
/// false on step failure.
bool integratePeriod(const Dae& dae, PeriodWorkspace& pw, const Vec& x0, double period,
                     std::size_t m, const num::NewtonOptions& stepNewton,
                     std::vector<Vec>& states, Matrix& sens, std::size_t p, Vec& meanRow,
                     num::SolverCounters& counters) {
    OBS_SPAN("pss.period");
    const std::size_t n = dae.size();
    const double h = period / static_cast<double>(m);
    const double invH = 1.0 / h;
    states.resize(m + 1);
    states[0] = x0;

    dae.eval(0.0, x0, pw.qk, pw.fk, &pw.ck, &pw.gk);
    ++counters.rhsEvals;

    sens.resize(n, n + 1);
    for (std::size_t i = 0; i < n; ++i) sens(i, i) = 1.0;
    meanRow.assign(n + 1, 0.0);
    meanRow[p] = 0.5 / static_cast<double>(m);

    for (std::size_t k = 0; k < m; ++k) {
        // TRAP residual (algebraic rows collocated at the new point):
        //   (q(x1)-q(xk))/h + w f(x1) + (1-w) f(xk) = 0,
        // solved from the quadratic extrapolation of the last three points
        // (linear from two at k = 1, the period start at k = 0).
        Vec& x1 = states[k + 1];
        const Vec& xk = states[k];
        x1.resize(n);
        if (k >= 2) {
            const Vec& xk1 = states[k - 1];
            const Vec& xk2 = states[k - 2];
            for (std::size_t i = 0; i < n; ++i) x1[i] = 3.0 * (xk[i] - xk1[i]) + xk2[i];
        } else if (k == 1) {
            const Vec& xk1 = states[0];
            for (std::size_t i = 0; i < n; ++i) x1[i] = 2.0 * xk[i] - xk1[i];
        } else {
            x1 = xk;
        }
        if (!pw.stepper.step(0.0, h, pw.qk, pw.fk, x1, stepNewton, counters)) return false;
        ++counters.steps;

        // M * S1 = N * Sk + extra_T, with per-row weights w:
        //   M = C1/h + w G1,  N = Ck/h - (1-w) Gk,
        //   extra for the T column: (q1 - qk) / (h^2 m)   (since h = T/m).
        const Matrix& c1 = pw.stepper.c1();
        const Matrix& g1 = pw.stepper.g1();
        const Vec& q1 = pw.stepper.q1();
        for (std::size_t r = 0; r < n; ++r) {
            const double w = detail::newWeight(pw.alg, r);
            for (std::size_t c = 0; c < n; ++c) pw.mMat(r, c) = c1(r, c) * invH + w * g1(r, c);
        }
        for (std::size_t r = 0; r < n; ++r) {
            const double w = detail::newWeight(pw.alg, r);
            for (std::size_t c = 0; c < n; ++c)
                pw.nMat(r, c) = pw.ck(r, c) * invH - (1.0 - w) * pw.gk(r, c);
        }
        if (!pw.sensLu.refactor(pw.mMat)) return false;
        ++counters.luFactorizations;
        pw.rhs.resize(n, n + 1);
        // rhs = N * sens  (+ T-column extra)
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c <= n; ++c) {
                double s = 0.0;
                for (std::size_t j = 0; j < n; ++j) s += pw.nMat(r, j) * sens(j, c);
                pw.rhs(r, c) = s;
            }
        const double hm2 = 1.0 / (h * h * static_cast<double>(m));
        for (std::size_t r = 0; r < n; ++r) pw.rhs(r, n) += (q1[r] - pw.qk[r]) * hm2;
        // rhs is fully built, so the solve may overwrite sens directly
        // (blocked column sweep — the n+1-column hot path of shooting).
        pw.sensLu.solveMatrixInto(pw.rhs, sens);
        pw.ck = c1;
        pw.gk = g1;
        const double w = (k + 1 == m ? 0.5 : 1.0) / static_cast<double>(m);
        for (std::size_t c = 0; c <= n; ++c) meanRow[c] += w * sens(p, c);

        pw.qk = q1;
        pw.fk = pw.stepper.f1();
    }
    return true;
}

/// The seed shooting starts Newton from: DC operating point, a
/// deterministic kick, then a transient that grows one `freqHint` cycle at
/// a time and stops at the first cycle after which the record has settled:
/// at least three rising crossings of its second half's mean in that half,
/// with period jitter under 5 % of the period.  It gives up after
/// kMaxWarmupCycles.  A negative `phaseUnknown` picks the node voltage with
/// the largest swing over the first cycle.  The seed is the state at the
/// last rising crossing of the settled record's mean of that unknown
/// (linear interpolation).
struct WarmupSeed {
    bool ok = false;
    std::string message;
    int phaseUnknown = -1;
    double period = 0.0;  ///< period estimate from the settled record
    Vec xSeed;
    num::SolverCounters counters;  ///< DC solve + every warm-up cycle
};

WarmupSeed warmStart(const Dae& dae, double freqHint, double kick, int phaseUnknown,
                     const num::NewtonOptions& newton) {
    OBS_SPAN("pss.warmup");
    WarmupSeed ws;
    const std::size_t n = dae.size();
    const DcopResult dc = dcOperatingPoint(dae);
    ws.counters += dc.counters;
    if (!dc.ok) {
        ws.message = "DC operating point failed: " + dc.message;
        return ws;
    }
    // Deterministic asymmetric kick off the unstable equilibrium.
    Vec x = dc.x;
    for (std::size_t i = 0; i < n; ++i)
        x[i] += kick * std::sin(1.0 + 2.3 * static_cast<double>(i));

    TransientOptions trOpt;
    trOpt.dt = 1.0 / (freqHint * static_cast<double>(kWarmupStepsPerCycle));
    trOpt.newton = newton;
    const double cycle = 1.0 / freqHint;
    TransientResult rec;  // the whole warm-up, kick to last cycle
    rec.t.assign(1, 0.0);
    rec.x.assign(1, x);
    int phaseIdx = phaseUnknown;
    PeriodEstimate pe;
    Vec sig;
    double level = 0.0;
    bool settled = false;
    // Grow the record one hinted cycle at a time until it settles.
    for (std::size_t c = 0; c < kMaxWarmupCycles && !settled; ++c) {
        TransientResult tr =
            transient(dae, rec.x.back(), rec.t.back(), rec.t.back() + cycle, trOpt);
        ws.counters += tr.counters;
        if (!tr.ok) {
            ws.message = "warmup transient failed: " + tr.message;
            return ws;
        }
        rec.t.insert(rec.t.end(), tr.t.begin() + 1, tr.t.end());
        rec.x.insert(rec.x.end(), std::make_move_iterator(tr.x.begin() + 1),
                     std::make_move_iterator(tr.x.end()));
        if (phaseIdx < 0) phaseIdx = autoPhaseUnknown(dae, rec);
        if (phaseIdx < 0) {
            ws.message = "no oscillating unknown found";
            return ws;
        }
        // Estimate the period from the second half of the record only.
        sig = rec.column(static_cast<std::size_t>(phaseIdx));
        const std::size_t half = sig.size() / 2;
        const Vec tTail(rec.t.begin() + static_cast<long>(half), rec.t.end());
        const Vec sTail(sig.begin() + static_cast<long>(half), sig.end());
        level = mean(sTail);
        pe = estimatePeriod(tTail, sTail, level);
        settled = pe.ok && pe.jitter < 0.05 * pe.period;
    }
    if (!settled) {
        ws.message = "oscillation did not settle during warmup";
        return ws;
    }
    ws.phaseUnknown = phaseIdx;
    ws.period = pe.period;

    // Seed on the last rising crossing of `level` (a settled estimate had at
    // least three of them in the record's second half).
    std::size_t kc = sig.size() - 1;
    while (!(sig[kc - 1] < level && sig[kc] >= level)) --kc;
    const double a = sig[kc - 1] - level, b = sig[kc] - level;
    const double f = (b - a) != 0.0 ? -a / (b - a) : 0.0;
    const Vec& xa = rec.x[kc - 1];
    const Vec& xb = rec.x[kc];
    ws.xSeed.resize(n);
    for (std::size_t i = 0; i < n; ++i) ws.xSeed[i] = xa[i] + f * (xb[i] - xa[i]);
    ws.ok = true;
    return ws;
}

}  // namespace

num::Vec PssResult::column(std::size_t idx) const {
    num::Vec out(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) out[i] = xs[i][idx];
    return out;
}

PssResult shootingPss(const Dae& dae, const PssOptions& opt) {
    OBS_SPAN("pss.shoot");
    const auto wallStart = std::chrono::steady_clock::now();
    PssResult res;
    const auto finish = [&res, wallStart] {
        res.counters.wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
        obs::recordSolverCounters("pss", res.counters);
    };
    const std::size_t n = dae.size();

    // 1. Warm start: DC op, kick, warm-up, seed on a rising crossing.
    const WarmupSeed ws = warmStart(dae, opt.freqHint, opt.kick, opt.phaseUnknown, opt.stepNewton);
    res.counters += ws.counters;
    if (!ws.ok) {
        res.message = ws.message;
        finish();
        return res;
    }
    res.phaseUnknown = ws.phaseUnknown;
    const auto p = static_cast<std::size_t>(ws.phaseUnknown);
    Vec x0 = ws.xSeed;
    double period = ws.period;

    // 2. Shooting Newton on (x0, T), phase row x0[p] - mean_p(x0, T).
    const std::size_t m = opt.shootingSteps;
    PeriodWorkspace pw(dae);
    std::vector<Vec> states;
    Matrix sens;
    Matrix j(n + 1, n + 1);
    LuFactor borderedLu;
    Vec bigF(n + 1), dz, meanRow;
    double fNorm = 0.0;
    bool converged = false;
    for (int it = 0; it < kMaxShootIter; ++it) {
        res.shootIterations = it + 1;
        if (!integratePeriod(dae, pw, x0, period, m, opt.stepNewton, states, sens, p, meanRow,
                             res.counters)) {
            res.message = "shooting: period integration failed";
            finish();
            return res;
        }
        // Residual; the phase row subtracts the trapezoid mean of x[p].
        for (std::size_t i = 0; i < n; ++i) bigF[i] = states[m][i] - x0[i];
        double meanP = 0.5 * (states[0][p] + states[m][p]);
        for (std::size_t k = 1; k < m; ++k) meanP += states[k][p];
        bigF[n] = x0[p] - meanP / static_cast<double>(m);
        fNorm = num::normInf(bigF);
        res.shootResidual = fNorm;
        if (fNorm < kShootTol) {
            converged = true;
            break;
        }
        // Bordered Jacobian: [S_x - I, s_T; e_p^T - dmean_p/dx0, -dmean_p/dT].
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c) j(r, c) = sens(r, c) - (r == c ? 1.0 : 0.0);
            j(r, n) = sens(r, n);
        }
        for (std::size_t c = 0; c <= n; ++c) j(n, c) = -meanRow[c];
        j(n, p) += 1.0;
        if (!borderedLu.refactor(j)) {
            res.message = "shooting: singular bordered Jacobian";
            finish();
            return res;
        }
        ++res.counters.luFactorizations;
        borderedLu.solveInto(bigF, dz);
        // Damp: never change T by more than 20% in one go.
        double damp = 1.0;
        if (std::abs(dz[n]) > 0.2 * period) damp = 0.2 * period / std::abs(dz[n]);
        for (std::size_t i = 0; i < n; ++i) x0[i] -= damp * dz[i];
        period -= damp * dz[n];
        if (!(period > 0)) {
            res.message = "shooting: period became non-positive";
            finish();
            return res;
        }
    }
    if (!converged) {
        res.message = "shooting did not converge (residual " + std::to_string(fNorm) + ")";
        finish();
        return res;
    }

    // 3. Uniform resampling of the converged iteration's trajectory: it ran
    // from this x0 and period, so it is the final fine trajectory.
    res.period = period;
    res.f0 = 1.0 / period;
    res.xFine = std::move(states);
    res.tFine = num::linspace(0.0, period, m + 1);
    res.xs.assign(kOutputSamples, Vec(n));
    for (std::size_t i = 0; i < n; ++i) {
        Vec col(m + 1);
        for (std::size_t k = 0; k <= m; ++k) col[k] = res.xFine[k][i];
        const Vec u = num::resampleUniform(res.tFine, col, 0.0, period, kOutputSamples);
        for (std::size_t k = 0; k < kOutputSamples; ++k) res.xs[k][i] = u[k];
    }
    res.ok = true;
    res.message = "ok";
    finish();
    return res;
}

}  // namespace phlogon::an
