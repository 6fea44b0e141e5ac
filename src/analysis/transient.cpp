#include "analysis/transient.hpp"

#include <algorithm>
#include <chrono>

#include "analysis/step_solver.hpp"
#include "analysis/trap_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::an {

namespace {
/// Halvings of a step whose Newton solve failed before the run aborts.
constexpr int kMaxStepHalvings = 8;
}  // namespace

Vec TransientResult::column(std::size_t idx) const {
    Vec out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i][idx];
    return out;
}

TransientResult transient(const Dae& dae, const Vec& x0, double t0, double t1,
                          const TransientOptions& opt) {
    OBS_SPAN("transient.run");
    const auto wallStart = std::chrono::steady_clock::now();
    TransientResult res;
    const auto finish = [&res, wallStart] {
        res.counters.wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
        obs::recordSolverCounters("transient", res.counters);
    };
    if (!(opt.dt > 0)) {
        res.message = "dt must be positive";
        finish();
        return res;
    }
    if (x0.size() != dae.size()) {
        res.message = "initial state has " + std::to_string(x0.size()) +
                      " entries, the DAE has " + std::to_string(dae.size()) + " unknowns";
        finish();
        return res;
    }
    Vec xk = x0;
    double tk = t0;
    Vec qk, fk;
    dae.eval(tk, xk, qk, fk, nullptr, nullptr);
    ++res.counters.rhsEvals;
    const std::vector<bool> alg = detail::algebraicRows(dae.evalC(tk, xk));
    detail::ImplicitStepper stepper(dae, alg);
    res.t.push_back(tk);
    res.x.push_back(xk);

    Vec xNew;
    std::size_t stepIndex = 0;
    const std::size_t storeEvery = std::max<std::size_t>(opt.storeEvery, 1);

    // March on the dt grid, halving only to rescue Newton failures.  The
    // 1e-3 dt guard ends the run when t has reached t1 up to rounding drift,
    // and otherwise lets a last short step land on t1.
    while (t1 - tk > 1e-3 * opt.dt) {
        double h = std::min(opt.dt, t1 - tk);
        bool done = false;
        for (int halving = 0; halving <= kMaxStepHalvings; ++halving) {
            xNew = xk;  // predictor: previous value
            if (stepper.step(tk + h, h, qk, fk, xNew, opt.newton, res.counters)) {
                done = true;
                break;
            }
            ++res.counters.rejectedSteps;
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
        ++res.counters.steps;
        if (stepIndex % storeEvery == 0) {
            res.t.push_back(tk);
            res.x.push_back(xk);
        }
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
