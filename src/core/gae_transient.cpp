#include "core/gae_transient.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "core/gae_sweep.hpp"
#include "numeric/batch_ode.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::core {

double GaeTransientResult::at(double tq) const {
    if (t.empty()) return 0.0;
    if (tq <= t.front()) return dphi.front();
    if (tq >= t.back()) return dphi.back();
    const auto it = std::upper_bound(t.begin(), t.end(), tq);
    const std::size_t i = static_cast<std::size_t>(it - t.begin());
    const double dt = t[i] - t[i - 1];
    const double f = dt > 0 ? (tq - t[i - 1]) / dt : 0.0;
    return dphi[i - 1] + f * (dphi[i] - dphi[i - 1]);
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The engine behind every entry point (see the header): lanes phi0[l] from
/// tStart to t1.  Failed lanes drop out, so later segments batch only live
/// ones.
std::vector<GaeTransientResult> integrate(const PpvModel& model, double f1,
                                          const std::vector<GaeSegment>& schedule,
                                          const Vec& phi0, double tStart, double t1,
                                          const num::OdeOptions& opt, std::size_t gridSize) {
    if (schedule.empty()) throw std::invalid_argument("gaeTransient: empty schedule");
    for (std::size_t i = 1; i < schedule.size(); ++i)
        if (schedule[i].tStart < schedule[i - 1].tStart)
            throw std::invalid_argument("gaeTransient: schedule not sorted");

    const std::size_t lanes = phi0.size();
    std::vector<GaeTransientResult> res(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        res[l].t.push_back(tStart);
        res[l].dphi.push_back(phi0[l]);
    }
    std::vector<std::size_t> live(lanes);
    std::iota(live.begin(), live.end(), std::size_t{0});
    num::BatchOde batch(lanes);
    double tCur = tStart;

    for (std::size_t s = 0; s < schedule.size() && !live.empty(); ++s) {
        const double segEnd = (s + 1 < schedule.size()) ? std::min(schedule[s + 1].tStart, t1) : t1;
        if (segEnd <= tCur) continue;
        if (schedule[s].tStart > tCur + 1e-18 && s == 0)
            throw std::invalid_argument("gaeTransient: first segment starts after t0");

        const Gae gae(model, f1, schedule[s].injections, gridSize);
        const num::BatchRhs1 rhs = [&gae](const double* /*t*/, const double* y, double* dydt,
                                          const unsigned char* /*active*/, std::size_t n) {
            gae.rhsMany(y, dydt, n);
        };
        Vec y0(live.size());
        for (std::size_t i = 0; i < live.size(); ++i) y0[i] = res[live[i]].dphi.back();
        const num::BatchOdeSolution sol = batch.rkf45(rhs, y0, tCur, segEnd, opt);

        std::vector<std::size_t> nextLive;
        nextLive.reserve(live.size());
        for (std::size_t i = 0; i < live.size(); ++i) {
            const num::OdeSolution1& lane = sol.lanes[i];
            GaeTransientResult& tr = res[live[i]];
            const std::size_t accepted = lane.t.size() - 1;
            tr.counters.steps += accepted;
            tr.counters.rejectedSteps += lane.rejectedSteps;
            // Six Cash-Karp stages per attempted step.
            tr.counters.rhsEvals += 6 * (accepted + lane.rejectedSteps);
            if (!lane.ok) continue;
            tr.t.insert(tr.t.end(), lane.t.begin() + 1, lane.t.end());
            tr.dphi.insert(tr.dphi.end(), lane.y.begin() + 1, lane.y.end());
            nextLive.push_back(live[i]);
        }
        live = std::move(nextLive);
        tCur = segEnd;
        if (tCur >= t1) break;
    }
    for (const std::size_t l : live) res[l].ok = true;
    return res;
}

}  // namespace

GaeTransientResult gaeTransient(const PpvModel& model, double f1,
                                const std::vector<GaeSegment>& schedule, double dphi0, double t0,
                                double t1, const num::OdeOptions& opt, std::size_t gridSize) {
    OBS_SPAN("gae.transient");
    const auto wallStart = std::chrono::steady_clock::now();
    GaeTransientResult res =
        std::move(integrate(model, f1, schedule, Vec{dphi0}, t0, t1, opt, gridSize)[0]);
    res.counters.wallSeconds = secondsSince(wallStart);
    obs::recordSolverCounters("gae", res.counters);
    return res;
}

GaeEnsembleResult gaeTransientEnsemble(const PpvModel& model, double f1,
                                       const std::vector<GaeSegment>& schedule, const Vec& dphi0,
                                       double t0, double t1, const num::OdeOptions& opt,
                                       std::size_t gridSize) {
    OBS_SPAN("gae.ensemble");
    const auto wallStart = std::chrono::steady_clock::now();
    GaeEnsembleResult res;
    res.trials = integrate(model, f1, schedule, dphi0, t0, t1, opt, gridSize);
    res.ok = std::all_of(res.trials.begin(), res.trials.end(),
                         [](const GaeTransientResult& tr) { return tr.ok; });
    if (res.trials.empty()) return res;
    PHLOGON_ADD_METRIC("batch.gae.lanes", res.trials.size());
    num::SolverCounters agg;
    for (const GaeTransientResult& tr : res.trials) agg += tr.counters;
    agg.wallSeconds = secondsSince(wallStart);
    obs::recordSolverCounters("gae.ensemble", agg);
    return res;
}

double settleTime(const GaeTransientResult& r, double target, double tol) {
    if (r.t.empty()) return 0.0;
    double tSettle = r.t.back();
    bool inside = false;
    for (std::size_t i = 0; i < r.t.size(); ++i) {
        const double err = phaseDistance(r.dphi[i], target);
        if (err <= tol) {
            if (!inside) {
                tSettle = r.t[i];
                inside = true;
            }
        } else {
            inside = false;
        }
    }
    return inside ? tSettle : r.t.back();
}

}  // namespace phlogon::core
