#include "core/gae_transient.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/gae_sweep.hpp"
#include "io/checkpoint.hpp"
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

GaeTransientResult gaeTransient(const PpvModel& model, double f1,
                                const std::vector<GaeSegment>& schedule, double dphi0, double t0,
                                double t1, const num::OdeOptions& opt, std::size_t gridSize,
                                const GaeCheckpointOptions& checkpoint) {
    return gaeTransientFrom(model, f1, schedule, dphi0, t0, t1, opt, gridSize, checkpoint, 0.0);
}

GaeTransientResult gaeTransientFrom(const PpvModel& model, double f1,
                                    const std::vector<GaeSegment>& schedule, double phi0,
                                    double tStart, double t1, const num::OdeOptions& opt,
                                    std::size_t gridSize, const GaeCheckpointOptions& checkpoint,
                                    double firstSegInitialStep) {
    OBS_SPAN("gae.transient");
    const auto wallStart = std::chrono::steady_clock::now();
    GaeTransientResult res;
    const auto finish = [&res, wallStart] {
        res.counters.wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
        obs::recordSolverCounters("gae", res.counters);
    };
    if (schedule.empty()) throw std::invalid_argument("gaeTransient: empty schedule");
    for (std::size_t i = 1; i < schedule.size(); ++i)
        if (schedule[i].tStart < schedule[i - 1].tStart)
            throw std::invalid_argument("gaeTransient: schedule not sorted");

    double tCur = tStart;
    double phiCur = phi0;
    res.t.push_back(tCur);
    res.dphi.push_back(phiCur);

    bool firstIntegratedSegment = true;
    double lastSnapshotT = tCur;
    for (std::size_t s = 0; s < schedule.size(); ++s) {
        const double segEnd = (s + 1 < schedule.size()) ? std::min(schedule[s + 1].tStart, t1) : t1;
        if (segEnd <= tCur) continue;
        if (schedule[s].tStart > tCur + 1e-18 && s == 0)
            throw std::invalid_argument("gaeTransient: first segment starts after t0");

        const Gae gae(model, f1, schedule[s].injections, gridSize);
        num::SolverCounters& cnt = res.counters;
        const num::OdeRhs1 rhs = [&gae, &cnt](double /*t*/, double phi) {
            ++cnt.rhsEvals;
            return gae.rhs(phi);
        };
        num::OdeOptions segOpt = opt;
        if (firstIntegratedSegment && firstSegInitialStep > 0)
            segOpt.initialStep = firstSegInitialStep;
        firstIntegratedSegment = false;
        std::size_t segAccepted = 0;
        if (checkpoint.enabled()) {
            // The snapshot hook never perturbs the numerics: it only
            // observes accepted (t, dphi, hNext) triples.
            segOpt.onAccept = [&](double t, const Vec& y, double hNext) {
                ++segAccepted;
                if (opt.onAccept) opt.onAccept(t, y, hNext);
                if (t - lastSnapshotT >= checkpoint.interval) {
                    io::GaeCheckpoint c;
                    c.t = t;
                    c.dphi = y[0];
                    c.h = hNext;
                    c.counters = res.counters;
                    c.counters.steps += segAccepted;
                    io::saveGaeCheckpoint(checkpoint.path, c);
                    lastSnapshotT = t;
                }
            };
        }
        const num::OdeSolution1 sol = num::rkf45Scalar(rhs, phiCur, tCur, segEnd, segOpt);
        res.counters.rejectedSteps += sol.rejectedSteps;
        if (sol.t.size() > 1) res.counters.steps += sol.t.size() - 1;
        if (!sol.ok) {
            finish();
            return res;  // res.ok stays false
        }
        for (std::size_t i = 1; i < sol.t.size(); ++i) {
            res.t.push_back(sol.t[i]);
            res.dphi.push_back(sol.y[i]);
        }
        tCur = segEnd;
        phiCur = res.dphi.back();
        if (tCur >= t1) break;
    }
    res.ok = true;
    finish();
    return res;
}

GaeEnsembleResult gaeTransientEnsemble(const PpvModel& model, double f1,
                                       const std::vector<GaeSegment>& schedule, const Vec& dphi0,
                                       double t0, double t1, const num::OdeOptions& opt,
                                       std::size_t gridSize) {
    OBS_SPAN("gae.ensemble");
    const auto wallStart = std::chrono::steady_clock::now();
    GaeEnsembleResult res;
    if (schedule.empty()) throw std::invalid_argument("gaeTransientEnsemble: empty schedule");
    for (std::size_t i = 1; i < schedule.size(); ++i)
        if (schedule[i].tStart < schedule[i - 1].tStart)
            throw std::invalid_argument("gaeTransientEnsemble: schedule not sorted");

    const std::size_t lanes = dphi0.size();
    res.trials.assign(lanes, GaeTransientResult{});
    if (lanes == 0) {
        res.ok = true;
        return res;
    }
    for (std::size_t l = 0; l < lanes; ++l) {
        res.trials[l].t.push_back(t0);
        res.trials[l].dphi.push_back(dphi0[l]);
    }
    PHLOGON_ADD_METRIC("batch.gae.lanes", lanes);

    // Lanes that failed a segment stop integrating (their scalar runs would
    // have stopped there too); survivors are compacted so later segments
    // batch only live lanes.
    std::vector<std::size_t> live(lanes);
    for (std::size_t l = 0; l < lanes; ++l) live[l] = l;
    Vec phiCur = dphi0;
    double tCur = t0;
    num::BatchOde batch(lanes);

    for (std::size_t s = 0; s < schedule.size() && !live.empty(); ++s) {
        const double segEnd = (s + 1 < schedule.size()) ? std::min(schedule[s + 1].tStart, t1) : t1;
        if (segEnd <= tCur) continue;
        if (schedule[s].tStart > tCur + 1e-18 && s == 0)
            throw std::invalid_argument("gaeTransientEnsemble: first segment starts after t0");

        // One Gae per segment, shared by every lane — the scalar path
        // rebuilds this per trial, which dominates ensemble cost.
        const Gae gae(model, f1, schedule[s].injections, gridSize);
        const num::BatchRhs1 rhs = [&gae](const double* /*t*/, const double* y, double* dydt,
                                          const unsigned char* /*active*/, std::size_t n) {
            gae.rhsMany(y, dydt, n);
        };
        Vec y0(live.size());
        for (std::size_t i = 0; i < live.size(); ++i) y0[i] = phiCur[live[i]];
        const num::BatchOdeSolution sol = batch.rkf45(rhs, y0, tCur, segEnd, opt);

        std::vector<std::size_t> nextLive;
        nextLive.reserve(live.size());
        for (std::size_t i = 0; i < live.size(); ++i) {
            const std::size_t l = live[i];
            const num::OdeSolution1& lane = sol.lanes[i];
            GaeTransientResult& tr = res.trials[l];
            const std::size_t accepted = lane.t.empty() ? 0 : lane.t.size() - 1;
            tr.counters.steps += accepted;
            tr.counters.rejectedSteps += lane.rejectedSteps;
            // Six Cash-Karp stages per attempted step, exactly as the scalar
            // per-trial rhs counter would have recorded.
            tr.counters.rhsEvals += 6 * (accepted + lane.rejectedSteps);
            for (std::size_t p = 1; p < lane.t.size(); ++p) {
                tr.t.push_back(lane.t[p]);
                tr.dphi.push_back(lane.y[p]);
            }
            if (lane.ok) {
                phiCur[l] = tr.dphi.back();
                nextLive.push_back(l);
            }
        }
        live = std::move(nextLive);
        tCur = segEnd;
        if (tCur >= t1) break;
    }

    for (const std::size_t l : live) res.trials[l].ok = true;
    res.ok = live.size() == lanes;

    num::SolverCounters agg;
    for (const GaeTransientResult& tr : res.trials) {
        agg.steps += tr.counters.steps;
        agg.rejectedSteps += tr.counters.rejectedSteps;
        agg.rhsEvals += tr.counters.rhsEvals;
    }
    agg.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
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
