#include "analysis/transient.hpp"

#include <algorithm>
#include <chrono>

#include "analysis/step_solver.hpp"
#include "analysis/trap_util.hpp"
#include "io/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::an {

Vec TransientResult::column(std::size_t idx) const {
    Vec out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i][idx];
    return out;
}

TransientResult transient(const Dae& dae, const Vec& x0, double t0, double t1,
                          const TransientOptions& opt) {
    TransientResumeState st;
    st.t0 = t0;
    st.t = t0;
    st.x = x0;
    return transientResumed(dae, st, t1, opt);
}

TransientResult transientResumed(const Dae& dae, const TransientResumeState& st, double t1,
                                 const TransientOptions& opt) {
    OBS_SPAN("transient.run");
    const auto wallStart = std::chrono::steady_clock::now();
    const double t0 = st.t0;
    TransientResult res;
    // This segment's counters accumulate separately from the checkpointed
    // totals and are folded in with SolverCounters::operator+= at every exit,
    // so no field can be dropped from the resume aggregation.
    num::SolverCounters run;
    const auto finish = [&res, &st, &run, wallStart] {
        run.wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
        res.counters = st.counters;
        res.counters += run;
        obs::recordSolverCounters("transient", run);
    };
    if (!(opt.dt > 0)) {
        res.message = "dt must be positive";
        finish();
        return res;
    }
    Vec xk = st.x;
    double tk = st.t;
    Vec qk, fk;
    // Re-derive the old-point charges/currents.  The stepper's q1()/f1() are
    // themselves a fresh dae.eval at the accepted point, so this reproduces
    // them bitwise on resume; it only counts as work on a fresh start.
    dae.eval(tk, xk, qk, fk, nullptr, nullptr);
    if (st.stepIndex == 0) ++run.rhsEvals;
    const std::vector<bool> alg = detail::algebraicRows(dae.evalC(tk, xk));
    detail::ImplicitStepper stepper(dae, alg);
    res.t.push_back(tk);
    res.x.push_back(xk);

    Vec xNew;
    std::size_t stepIndex = static_cast<std::size_t>(st.stepIndex);
    double lastSnapshotT = tk;
    const auto snapshot = [&] {
        if (!opt.checkpoint.enabled() || tk - lastSnapshotT < opt.checkpoint.interval) return;
        io::TransientCheckpoint c;
        c.t0 = t0;
        c.t1 = t1;
        c.t = tk;
        c.stepIndex = stepIndex;
        c.x = xk;
        c.counters = st.counters;
        c.counters += run;
        c.counters.wallSeconds =
            st.counters.wallSeconds +
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
        io::saveTransientCheckpoint(opt.checkpoint.path, c);
        lastSnapshotT = tk;
    };

    // March on the dt grid, halving only to rescue Newton failures.  The
    // 1e-3 dt guard ends the run when t has reached t1 up to rounding drift,
    // and otherwise lets a last short step land on t1.
    while (t1 - tk > 1e-3 * opt.dt) {
        double h = std::min(opt.dt, t1 - tk);
        bool done = false;
        for (int halving = 0; halving <= opt.maxStepHalvings; ++halving) {
            xNew = xk;  // predictor: previous value
            if (stepper.step(tk + h, h, qk, fk, xNew, opt.newton, run)) {
                done = true;
                break;
            }
            ++run.rejectedSteps;
            h *= 0.5;
        }
        if (!done) {
            res.message = "Newton failed at t=" + std::to_string(tk);
            finish();
            return res;
        }
        tk += h;
        xk = xNew;
        qk = stepper.q1();
        fk = stepper.f1();
        ++stepIndex;
        ++run.steps;
        if (stepIndex % opt.storeEvery == 0) {
            res.t.push_back(tk);
            res.x.push_back(xk);
        }
        snapshot();
    }
    if (res.t.back() != tk) {
        res.t.push_back(tk);
        res.x.push_back(xk);
    }
    res.ok = true;
    res.message = "ok";
    finish();
    return res;
}

}  // namespace phlogon::an
