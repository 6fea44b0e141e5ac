#include "numeric/batch_ode.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/rkf45_tableau.hpp"
#include "numeric/simd/simd.hpp"
#include "obs/metrics.hpp"

namespace phlogon::num {

// Cash-Karp coefficients shared with the SIMD error kernel and the reference
// rkf45 of tests/common/ode_oracle.hpp; the per-lane arithmetic below must
// stay an exact mirror of that rkf45 on a 1-dimensional state (see the
// contract in batch_ode.hpp).
using namespace cashkarp;

void BatchOde::reserve(std::size_t lanes) {
    t_.reserve(lanes);
    y_.reserve(lanes);
    h_.reserve(lanes);
    for (Vec* v : {&k1_, &k2_, &k3_, &k4_, &k5_, &k6_, &yt_, &y5_, &ts_, &err_})
        v->reserve(lanes);
    active_.reserve(lanes);
    attempts_.reserve(lanes);
}

BatchOdeSolution BatchOde::rkf45(const BatchRhs1& f, const Vec& y0, double t0, double t1,
                                 const OdeOptions& opt) {
    const std::size_t lanes = y0.size();
    BatchOdeSolution sol;
    sol.lanes.resize(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        sol.lanes[l].t.push_back(t0);
        sol.lanes[l].y.push_back(y0[l]);
    }

    const double span = t1 - t0;
    if (!(span > 0) || lanes == 0) {
        for (auto& lane : sol.lanes) lane.ok = true;
        sol.ok = true;
        return sol;
    }

    double h0 = opt.initialStep > 0 ? opt.initialStep : span / 1000.0;
    if (opt.maxStep > 0) h0 = std::min(h0, opt.maxStep);

    t_.assign(lanes, t0);
    y_ = y0;
    h_.assign(lanes, h0);
    for (Vec* v : {&k1_, &k2_, &k3_, &k4_, &k5_, &k6_, &yt_, &y5_, &ts_, &err_})
        v->assign(lanes, 0.0);
    active_.assign(lanes, 1);
    attempts_.assign(lanes, 0);

    const simd::Kernels& kr = simd::kernels(simd::resolveTier());

    std::size_t accepted = 0, rejected = 0, rounds = 0;
    std::size_t remaining = lanes;

    while (remaining > 0) {
        ++rounds;
        // Finish lanes that reached t1 (mirrors the scalar loop's top-of-
        // iteration check: success only counts while the attempt budget
        // lasts, and failed lanes were already retired below).
        for (std::size_t l = 0; l < lanes; ++l) {
            if (active_[l] && t_[l] >= t1) {
                sol.lanes[l].ok = true;
                active_[l] = 0;
                --remaining;
            }
        }
        if (remaining == 0) break;

        for (std::size_t l = 0; l < lanes; ++l) {
            if (active_[l]) h_[l] = std::min(h_[l], t1 - t_[l]);
        }

        // Six Cash-Karp stages, each one batched RHS call across all lanes;
        // the stage combinations run on the selected kernel tier
        // (bitwise-identical across tiers, see numeric/simd/simd.hpp).
        static constexpr double kB2[] = {B21};
        static constexpr double kB3[] = {B31, B32};
        static constexpr double kB4[] = {B41, B42, B43};
        static constexpr double kB5[] = {B51, B52, B53, B54};
        static constexpr double kB6[] = {B61, B62, B63, B64, B65};
        const double* ks[5] = {k1_.data(), k2_.data(), k3_.data(), k4_.data(), k5_.data()};

        f(t_.data(), y_.data(), k1_.data(), active_.data(), lanes);
        kr.rkStage(y_.data(), h_.data(), t_.data(), ks, kB2, 1, A2, yt_.data(), ts_.data(),
                   active_.data(), lanes);
        f(ts_.data(), yt_.data(), k2_.data(), active_.data(), lanes);
        kr.rkStage(y_.data(), h_.data(), t_.data(), ks, kB3, 2, A3, yt_.data(), ts_.data(),
                   active_.data(), lanes);
        f(ts_.data(), yt_.data(), k3_.data(), active_.data(), lanes);
        kr.rkStage(y_.data(), h_.data(), t_.data(), ks, kB4, 3, A4, yt_.data(), ts_.data(),
                   active_.data(), lanes);
        f(ts_.data(), yt_.data(), k4_.data(), active_.data(), lanes);
        kr.rkStage(y_.data(), h_.data(), t_.data(), ks, kB5, 4, A5, yt_.data(), ts_.data(),
                   active_.data(), lanes);
        f(ts_.data(), yt_.data(), k5_.data(), active_.data(), lanes);
        kr.rkStage(y_.data(), h_.data(), t_.data(), ks, kB6, 5, A6, yt_.data(), ts_.data(),
                   active_.data(), lanes);
        f(ts_.data(), yt_.data(), k6_.data(), active_.data(), lanes);

        // Per-lane embedded error estimate (scalar-exact on every tier),
        // then step control.
        kr.rkf45Embedded(y_.data(), h_.data(), k1_.data(), k3_.data(), k4_.data(),
                         k5_.data(), k6_.data(), opt.absTol, opt.relTol, y5_.data(),
                         err_.data(), active_.data(), lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            if (!active_[l]) continue;
            const double h = h_[l];
            const double errNorm = err_[l];

            ++attempts_[l];
            if (!std::isfinite(errNorm)) {
                h_[l] *= 0.25;
                ++sol.lanes[l].rejectedSteps;
                ++rejected;
                if (h_[l] < 1e-300) {
                    active_[l] = 0;  // scalar path bails out here: ok = false
                    --remaining;
                    continue;
                }
            } else if (errNorm <= 1.0) {
                t_[l] += h;
                y_[l] = y5_[l];
                sol.lanes[l].t.push_back(t_[l]);
                sol.lanes[l].y.push_back(y_[l]);
                ++accepted;
                const double grow = errNorm > 0 ? 0.9 * std::pow(errNorm, -0.2) : 5.0;
                h_[l] *= std::clamp(grow, 0.2, 5.0);
                if (opt.maxStep > 0) h_[l] = std::min(h_[l], opt.maxStep);
            } else {
                ++sol.lanes[l].rejectedSteps;
                ++rejected;
                h_[l] *= std::clamp(0.9 * std::pow(errNorm, -0.25), 0.1, 0.9);
                if (opt.maxStep > 0) h_[l] = std::min(h_[l], opt.maxStep);
            }
            // Budget exhausted: the scalar loop exits after maxSteps
            // iterations whatever the state, so the lane fails even if the
            // last accept reached t1.
            if (active_[l] && attempts_[l] >= opt.maxSteps) {
                active_[l] = 0;
                --remaining;
            }
        }
    }

    sol.ok = true;
    for (const auto& lane : sol.lanes) sol.ok = sol.ok && lane.ok;

    PHLOGON_ADD_METRIC("batch.ode.steps.accepted", accepted);
    PHLOGON_ADD_METRIC("batch.ode.steps.rejected", rejected);
    PHLOGON_ADD_METRIC("batch.ode.rounds", rounds);
    PHLOGON_ADD_METRIC("batch.ode.lanes", lanes);
    PHLOGON_COUNT_METRIC("batch.ode.solves");
    return sol;
}

OdeSolution BatchOde::rk4Lockstep(const BatchRhsCoupled& f, const Vec& y0, double t0, double t1,
                                  std::size_t nSteps, std::size_t storeEvery) {
    // Exact per-lane mirror of the reference rk4 (tests/common/ode_oracle.hpp)
    // on a lanes-dimensional state:
    //   yt = y; axpy(s, k, yt)  ==  yt[l] = y[l] + s * k[l]
    //   y[l] += h/6 * (k1 + 2*k2 + 2*k3 + k4)
    //   t = t0 + h * (i+1)
    // Only the storage policy differs (storeEvery thinning happens here
    // instead of post-hoc), which cannot change the stepped values.
    OdeSolution sol;
    const std::size_t lanes = y0.size();
    nSteps = std::max<std::size_t>(nSteps, 1);
    if (storeEvery == 0) storeEvery = 1;
    const double h = (t1 - t0) / static_cast<double>(nSteps);

    y_ = y0;
    for (Vec* v : {&k1_, &k2_, &k3_, &k4_, &yt_}) v->assign(lanes, 0.0);

    const simd::Kernels& kr = simd::kernels(simd::resolveTier());

    bool finite = true;
    const auto store = [&](double t) {
        sol.t.push_back(t);
        sol.y.push_back(y_);
        for (const double v : y_) finite = finite && std::isfinite(v);
    };
    double t = t0;
    store(t);
    for (std::size_t i = 0; i < nSteps; ++i) {
        f(t, y_.data(), k1_.data(), lanes);
        kr.axpyLanes(y_.data(), k1_.data(), 0.5 * h, yt_.data(), lanes);
        f(t + 0.5 * h, yt_.data(), k2_.data(), lanes);
        kr.axpyLanes(y_.data(), k2_.data(), 0.5 * h, yt_.data(), lanes);
        f(t + 0.5 * h, yt_.data(), k3_.data(), lanes);
        kr.axpyLanes(y_.data(), k3_.data(), h, yt_.data(), lanes);
        f(t + h, yt_.data(), k4_.data(), lanes);
        kr.rk4Combine(y_.data(), k1_.data(), k2_.data(), k3_.data(), k4_.data(), h, lanes);
        t = t0 + h * static_cast<double>(i + 1);
        if ((i + 1) % storeEvery == 0 || i + 1 == nSteps) store(t);
    }
    sol.ok = finite;
    PHLOGON_ADD_METRIC("batch.ode.lockstep.steps", nSteps);
    PHLOGON_ADD_METRIC("batch.ode.lockstep.lanes", lanes);
    PHLOGON_COUNT_METRIC("batch.ode.lockstep.solves");
    return sol;
}

}  // namespace phlogon::num
