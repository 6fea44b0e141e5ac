#include "core/phase_system.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "numeric/batch_ode.hpp"
#include "numeric/interp.hpp"
#include "numeric/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::core {

PhaseSystem::SignalId PhaseSystem::addExternal(std::function<double(double)> fn,
                                               std::string label) {
    Signal s;
    s.kind = SignalKind::External;
    s.external = std::move(fn);
    s.label = std::move(label);
    signals_.push_back(std::move(s));
    return static_cast<SignalId>(signals_.size()) - 1;
}

PhaseSystem::LatchId PhaseSystem::addLatch(PpvModel model, std::string label) {
    return addLatch(std::make_shared<const PpvModel>(std::move(model)), std::move(label));
}

PhaseSystem::LatchId PhaseSystem::addLatch(std::shared_ptr<const PpvModel> model,
                                           std::string label) {
    if (!model || !model->valid())
        throw std::invalid_argument("PhaseSystem::addLatch: invalid model");
    Latch l;
    l.model = std::move(model);
    l.label = std::move(label);
    const LatchId id = static_cast<LatchId>(latches_.size());

    Signal s;
    s.kind = SignalKind::LatchOutput;
    s.latch = id;
    s.label = l.label + ".out";
    signals_.push_back(std::move(s));
    l.outputSignal = static_cast<SignalId>(signals_.size()) - 1;

    latches_.push_back(std::move(l));
    connections_.emplace_back();
    return id;
}

PhaseSystem::SignalId PhaseSystem::latchOutput(LatchId latch) {
    return latches_.at(latch).outputSignal;
}

PhaseSystem::SignalId PhaseSystem::addGate(std::vector<std::pair<SignalId, double>> inputs,
                                           bool invert, double clip, std::string label) {
    const SignalId self = static_cast<SignalId>(signals_.size());
    for (const auto& [id, w] : inputs) {
        (void)w;
        if (id < 0 || id >= self)
            throw std::invalid_argument("PhaseSystem::addGate: input signal id out of range");
    }
    Signal s;
    s.kind = SignalKind::Gate;
    s.inputs = std::move(inputs);
    s.invert = invert;
    s.clip = clip;
    s.label = std::move(label);
    signals_.push_back(std::move(s));
    return self;
}

PhaseSystem::SignalId PhaseSystem::addPlaceholder(std::string label) {
    Signal s;
    s.kind = SignalKind::Placeholder;
    s.label = std::move(label);
    signals_.push_back(std::move(s));
    return static_cast<SignalId>(signals_.size()) - 1;
}

bool PhaseSystem::dependsOn(SignalId id, SignalId of) const {
    if (id == of) return true;
    const Signal& s = signals_[static_cast<std::size_t>(id)];
    switch (s.kind) {
        case SignalKind::Gate:
            for (const auto& [in, w] : s.inputs) {
                (void)w;
                if (dependsOn(in, of)) return true;
            }
            return false;
        case SignalKind::Placeholder:
            return s.target >= 0 && dependsOn(s.target, of);
        default:
            return false;  // externals and latch outputs break combinational paths
    }
}

void PhaseSystem::bindPlaceholder(SignalId placeholder, SignalId target) {
    if (placeholder < 0 || placeholder >= static_cast<SignalId>(signals_.size()) ||
        signals_[static_cast<std::size_t>(placeholder)].kind != SignalKind::Placeholder)
        throw std::invalid_argument("bindPlaceholder: not a placeholder");
    if (target < 0 || target >= static_cast<SignalId>(signals_.size()))
        throw std::invalid_argument("bindPlaceholder: bad target");
    if (dependsOn(target, placeholder))
        throw std::invalid_argument("bindPlaceholder: would create a combinational loop");
    signals_[static_cast<std::size_t>(placeholder)].target = target;
}

void PhaseSystem::connect(LatchId latch, std::size_t unknownIndex, SignalId sig, double gain,
                          double delayCycles) {
    if (latch < 0 || latch >= static_cast<LatchId>(latches_.size()))
        throw std::invalid_argument("PhaseSystem::connect: bad latch id " + std::to_string(latch));
    if (sig < 0 || sig >= static_cast<SignalId>(signals_.size()))
        throw std::invalid_argument("PhaseSystem::connect: bad signal id " + std::to_string(sig));
    const Latch& l = latches_[static_cast<std::size_t>(latch)];
    if (unknownIndex >= l.model->size())
        throw std::invalid_argument(
            "PhaseSystem::connect: unknown index " + std::to_string(unknownIndex) +
            " out of range for latch '" + l.label + "' (id " + std::to_string(latch) +
            "): model has " + std::to_string(l.model->size()) + " unknowns");
    connections_[static_cast<std::size_t>(latch)].push_back({unknownIndex, sig, gain, delayCycles});
}

double PhaseSystem::evalSignal(SignalId id, double t, double f1, const num::Vec& dphi) const {
    const Signal& s = signals_[static_cast<std::size_t>(id)];
    switch (s.kind) {
        case SignalKind::External:
            return s.external(t);
        case SignalKind::LatchOutput: {
            // Unit-amplitude fundamental of the oscillator output: the
            // phase-logic value the latch presents to gates.  (Harmonics of
            // the raw waveform are deliberately dropped; at circuit level
            // they produce small lock-phase offsets, at macromodel level the
            // fundamental is the clean abstraction.)
            const PpvModel& m = *latches_[static_cast<std::size_t>(s.latch)].model;
            const double theta = f1 * t + dphi[static_cast<std::size_t>(s.latch)];
            return std::cos(2.0 * std::numbers::pi * (theta - m.dphiPeak()));
        }
        case SignalKind::Gate: {
            double sum = 0.0;
            for (const auto& [in, w] : s.inputs) sum += w * evalSignal(in, t, f1, dphi);
            if (s.invert) sum = -sum;
            if (s.clip > 0.0) sum = s.clip * std::tanh(sum / s.clip);
            return sum;
        }
        case SignalKind::Placeholder:
            if (s.target < 0)
                throw std::logic_error("PhaseSystem: unbound placeholder '" + s.label + "'");
            return evalSignal(s.target, t, f1, dphi);
    }
    return 0.0;
}

double PhaseSystem::evalSignalCached(SignalId id, double t, double f1, const num::Vec& dphi,
                                     EvalCache& cache) const {
    const auto idx = static_cast<std::size_t>(id);
    if (cache.stamp[idx] == cache.cur && cache.t[idx] == t) {
        ++cache.hits;
        return cache.v[idx];
    }
    const Signal& s = signals_[idx];
    double val = 0.0;
    switch (s.kind) {
        case SignalKind::Gate: {
            double sum = 0.0;
            for (const auto& [in, w] : s.inputs)
                sum += w * evalSignalCached(in, t, f1, dphi, cache);
            if (s.invert) sum = -sum;
            if (s.clip > 0.0) sum = s.clip * std::tanh(sum / s.clip);
            val = sum;
            break;
        }
        case SignalKind::Placeholder:
            if (s.target < 0)
                throw std::logic_error("PhaseSystem: unbound placeholder '" + s.label + "'");
            val = evalSignalCached(s.target, t, f1, dphi, cache);
            break;
        default:
            // External / LatchOutput leaves: one arithmetic home, shared
            // with the uncached path.
            val = evalSignal(id, t, f1, dphi);
            break;
    }
    ++cache.misses;
    cache.stamp[idx] = cache.cur;
    cache.t[idx] = t;
    cache.v[idx] = val;
    return val;
}

PhaseSystem::Result PhaseSystem::simulate(double f1, double t0, double t1, const num::Vec& dphi0,
                                          std::size_t stepsPerCycle, std::size_t storeEvery) const {
    OBS_SPAN("phase.simulate");
    Result res;
    const std::size_t k = latches_.size();
    if (dphi0.size() != k)
        throw std::invalid_argument("PhaseSystem::simulate: dphi0 size mismatch");
    if (!(f1 > 0) || !(t1 > t0)) throw std::invalid_argument("PhaseSystem::simulate: bad span");

    // One memo shared across the whole run; a stamp bump per RK stage makes
    // prior-stage entries stale without clearing (dphi changes every stage).
    EvalCache cache;
    cache.stamp.assign(signals_.size(), 0);
    cache.t.assign(signals_.size(), 0.0);
    cache.v.assign(signals_.size(), 0.0);

    const num::OdeRhs rhs = [&](double t, const num::Vec& y) {
        ++cache.cur;
        num::Vec dy(k);
        for (std::size_t i = 0; i < k; ++i) {
            const PpvModel& m = *latches_[i].model;
            const double theta = f1 * t + y[i];
            double proj = 0.0;
            for (const Connection& c : connections_[i]) {
                const double tSig = t - c.delayCycles / f1;
                proj += m.ppvAt(c.unknownIndex, theta) * c.gain *
                        evalSignalCached(c.signal, tSig, f1, y, cache);
            }
            dy[i] = (m.f0() - f1) + m.f0() * proj;
        }
        return dy;
    };

    const std::size_t nSteps =
        static_cast<std::size_t>(std::ceil((t1 - t0) * f1 * static_cast<double>(stepsPerCycle)));
    const num::OdeSolution sol = num::rk4(rhs, dphi0, t0, t1, std::max<std::size_t>(nSteps, 1));
    PHLOGON_ADD_METRIC("batch.phase.memo.hits", cache.hits);
    PHLOGON_ADD_METRIC("batch.phase.memo.misses", cache.misses);
    if (!sol.ok) return res;

    res.dphi.assign(k, num::Vec());
    res.vout.assign(k, num::Vec());
    for (std::size_t p = 0; p < sol.t.size(); ++p) {
        if (p % storeEvery != 0 && p + 1 != sol.t.size()) continue;
        res.t.push_back(sol.t[p]);
        for (std::size_t i = 0; i < k; ++i) {
            const PpvModel& m = *latches_[i].model;
            res.dphi[i].push_back(sol.y[p][i]);
            res.vout[i].push_back(
                m.xsAt(m.outputUnknown(), f1 * sol.t[p] + sol.y[p][i]));
        }
    }
    res.ok = true;
    return res;
}

PhaseSystem::Program::Program(const PhaseSystem& sys) : sys_(&sys) {
    const std::size_t n = sys.signals_.size();

    // Collapse placeholder chains (bindPlaceholder guarantees acyclicity).
    resolved_.assign(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        SignalId id = static_cast<SignalId>(i);
        while (sys.signals_[static_cast<std::size_t>(id)].kind == SignalKind::Placeholder) {
            const SignalId tgt = sys.signals_[static_cast<std::size_t>(id)].target;
            if (tgt < 0)
                throw std::logic_error("PhaseSystem::Program: unbound placeholder '" +
                                       sys.signals_[static_cast<std::size_t>(id)].label + "'");
            id = tgt;
        }
        resolved_[i] = id;
    }

    // Dependency-sorted evaluation order over ALL signals (iterative DFS
    // postorder).  addGate only accepts earlier ids, but a bound placeholder
    // points forward, so creation order alone is not an evaluation order.
    order_.reserve(n);
    std::vector<unsigned char> state(n, 0);  // 0 unvisited, 1 open, 2 placed
    std::vector<SignalId> stack;
    for (std::size_t root = 0; root < n; ++root) {
        if (state[root] == 2) continue;
        stack.push_back(static_cast<SignalId>(root));
        while (!stack.empty()) {
            const SignalId id = stack.back();
            const auto idx = static_cast<std::size_t>(id);
            if (state[idx] == 2) {
                stack.pop_back();
                continue;
            }
            if (state[idx] == 0) {
                state[idx] = 1;
                const Signal& s = sys.signals_[idx];
                if (s.kind == SignalKind::Gate) {
                    for (const auto& [in, w] : s.inputs) {
                        (void)w;
                        if (state[static_cast<std::size_t>(in)] != 2) stack.push_back(in);
                    }
                } else if (s.kind == SignalKind::Placeholder) {
                    if (state[static_cast<std::size_t>(s.target)] != 2) stack.push_back(s.target);
                }
            } else {
                state[idx] = 2;
                order_.push_back(id);
                stack.pop_back();
            }
        }
    }
}

void PhaseSystem::Program::eval(double t, double f1, const double* dphi,
                                std::vector<double>& out) const {
    const auto& sigs = sys_->signals_;
    out.resize(sigs.size());
    for (const SignalId id : order_) {
        const auto idx = static_cast<std::size_t>(id);
        const Signal& s = sigs[idx];
        switch (s.kind) {
            case SignalKind::External:
                out[idx] = s.external(t);
                break;
            case SignalKind::LatchOutput: {
                // Same expression as evalSignal's LatchOutput case.
                const PpvModel& m = *sys_->latches_[static_cast<std::size_t>(s.latch)].model;
                const double theta = f1 * t + dphi[static_cast<std::size_t>(s.latch)];
                out[idx] = std::cos(2.0 * std::numbers::pi * (theta - m.dphiPeak()));
                break;
            }
            case SignalKind::Gate: {
                // Fan-in summed in declaration order, exactly as the
                // recursive walk sums it — the bitwise-parity anchor.
                double sum = 0.0;
                for (const auto& [in, w] : s.inputs) sum += w * out[static_cast<std::size_t>(in)];
                if (s.invert) sum = -sum;
                if (s.clip > 0.0) sum = s.clip * std::tanh(sum / s.clip);
                out[idx] = sum;
                break;
            }
            case SignalKind::Placeholder:
                out[idx] = out[static_cast<std::size_t>(s.target)];
                break;
        }
    }
}

PhaseSystem::Result PhaseSystem::simulateBatched(double f1, double t0, double t1,
                                                 const num::Vec& dphi0,
                                                 std::size_t stepsPerCycle, std::size_t storeEvery,
                                                 const BatchSimOptions& opt) const {
    OBS_SPAN("phase.simulateBatched");
    Result res;
    const std::size_t k = latches_.size();
    if (dphi0.size() != k)
        throw std::invalid_argument("PhaseSystem::simulateBatched: dphi0 size mismatch");
    if (!(f1 > 0) || !(t1 > t0))
        throw std::invalid_argument("PhaseSystem::simulateBatched: bad span");

    const Program prog(*this);

    // Group connections by exact delay value: one sparse gate-network pass
    // per (RK stage, distinct delay) computes every signal any latch reads at
    // that shifted time.  The group time uses the same expression as the
    // scalar path's per-connection tSig = t - delayCycles / f1, so signal
    // values match bit-for-bit.
    struct FlatConn {
        std::size_t unknownIndex;
        std::size_t group;
        SignalId signal;
        double gain;
    };
    std::vector<double> groupDelay;
    std::vector<std::vector<FlatConn>> conns(k);
    for (std::size_t i = 0; i < k; ++i) {
        conns[i].reserve(connections_[i].size());
        for (const Connection& c : connections_[i]) {
            std::size_t g = 0;
            while (g < groupDelay.size() && groupDelay[g] != c.delayCycles) ++g;
            if (g == groupDelay.size()) groupDelay.push_back(c.delayCycles);
            conns[i].push_back({c.unknownIndex, g, c.signal, c.gain});
        }
    }
    const std::size_t groups = groupDelay.size();

    // Lane partition for the projection loop.  Each lane writes only its own
    // dydt slot and reads only shared immutable data, so the block size and
    // thread count are bitwise-neutral knobs (parallelFor's slot-per-index
    // contract) — asserted by tests/logic/test_fabric_batch_parity.cpp.
    const std::size_t block = opt.blockSize > 0 ? opt.blockSize : 128;
    const std::size_t nBlocks = k == 0 ? 0 : (k + block - 1) / block;

    std::vector<std::vector<double>> sig(groups);
    const num::BatchRhsCoupled rhs = [&](double t, const double* y, double* dydt,
                                         std::size_t lanes) {
        for (std::size_t g = 0; g < groups; ++g)
            prog.eval(t - groupDelay[g] / f1, f1, y, sig[g]);
        auto lane = [&](std::size_t i) {
            const PpvModel& m = *latches_[i].model;
            const double theta = f1 * t + y[i];
            double proj = 0.0;
            for (const FlatConn& c : conns[i])
                proj += m.ppvAt(c.unknownIndex, theta) * c.gain *
                        sig[c.group][static_cast<std::size_t>(c.signal)];
            dydt[i] = (m.f0() - f1) + m.f0() * proj;
        };
        if (nBlocks > 1) {
            num::parallelFor(
                nBlocks,
                [&](std::size_t b) {
                    const std::size_t lo = b * block;
                    const std::size_t hi = std::min(lanes, lo + block);
                    for (std::size_t i = lo; i < hi; ++i) lane(i);
                },
                opt.threads);
        } else {
            for (std::size_t i = 0; i < lanes; ++i) lane(i);
        }
    };

    const std::size_t nSteps =
        static_cast<std::size_t>(std::ceil((t1 - t0) * f1 * static_cast<double>(stepsPerCycle)));
    num::BatchOde ode;
    const num::OdeSolution sol =
        ode.rk4Lockstep(rhs, dphi0, t0, t1, std::max<std::size_t>(nSteps, 1), storeEvery);
    PHLOGON_ADD_METRIC("batch.fabric.lanes", k);
    PHLOGON_ADD_METRIC("batch.fabric.delayGroups", groups);
    PHLOGON_ADD_METRIC("batch.fabric.signals", signals_.size());
    if (!sol.ok) return res;

    res.dphi.assign(k, num::Vec());
    res.vout.assign(k, num::Vec());
    for (std::size_t p = 0; p < sol.t.size(); ++p) {
        res.t.push_back(sol.t[p]);
        for (std::size_t i = 0; i < k; ++i) {
            const PpvModel& m = *latches_[i].model;
            res.dphi[i].push_back(sol.y[p][i]);
            res.vout[i].push_back(m.xsAt(m.outputUnknown(), f1 * sol.t[p] + sol.y[p][i]));
        }
    }
    res.ok = true;
    return res;
}

}  // namespace phlogon::core
