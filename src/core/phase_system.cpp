#include "core/phase_system.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "numeric/batch_ode.hpp"
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
    // Depth-first over the combinational fan-in with a visited set, so a
    // signal read on many paths (every XOR cell reads its left operand
    // twice) is expanded once: linear in the cone, no recursion.
    std::vector<unsigned char> seen(signals_.size(), 0);
    std::vector<SignalId> stack{id};
    while (!stack.empty()) {
        const SignalId cur = stack.back();
        stack.pop_back();
        if (cur == of) return true;
        const auto idx = static_cast<std::size_t>(cur);
        if (seen[idx]) continue;
        seen[idx] = 1;
        const Signal& s = signals_[idx];
        if (s.kind == SignalKind::Gate) {
            for (const auto& [in, w] : s.inputs) {
                (void)w;
                stack.push_back(in);
            }
        } else if (s.kind == SignalKind::Placeholder && s.target >= 0) {
            stack.push_back(s.target);
        }
        // Externals and latch outputs break combinational paths.
    }
    return false;
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

double PhaseSystem::signalValue(SignalId id, double t, double f1, const num::Vec& dphi) const {
    const Program prog(*this);
    std::vector<double> out;
    prog.eval(t, f1, dphi, out);
    return out.at(static_cast<std::size_t>(id));
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
                // Unit-amplitude fundamental of the oscillator output: the
                // phase-logic value the latch presents to gates.  (Harmonics
                // of the raw waveform are deliberately dropped; at circuit
                // level they produce small lock-phase offsets, at macromodel
                // level the fundamental is the clean abstraction.)
                const PpvModel& m = *sys_->latches_[static_cast<std::size_t>(s.latch)].model;
                const double theta = f1 * t + dphi[static_cast<std::size_t>(s.latch)];
                out[idx] = std::cos(2.0 * std::numbers::pi * (theta - m.dphiPeak()));
                break;
            }
            case SignalKind::Gate: {
                // Fan-in summed in declaration order: the goldens pin the
                // rounding this order gives.
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

PhaseSystem::Result PhaseSystem::simulate(double f1, double t0, double t1, const num::Vec& dphi0,
                                          std::size_t stepsPerCycle, std::size_t storeEvery) const {
    OBS_SPAN("phase.simulate");
    Result res;
    const std::size_t k = latches_.size();
    if (dphi0.size() != k)
        throw std::invalid_argument("PhaseSystem::simulate: dphi0 size mismatch");
    if (!(f1 > 0) || !(t1 > t0)) throw std::invalid_argument("PhaseSystem::simulate: bad span");

    const Program prog(*this);

    // Group connections by exact delay value: one gate-network pass per
    // (RK stage, distinct delay) computes every signal any latch reads at
    // that shifted time t - delayCycles / f1.  The latch phases are held at
    // their stage values over the delay, a fraction of a cycle.
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

    std::vector<std::vector<double>> sig(groups);
    const num::BatchRhsCoupled rhs = [&](double t, const double* y, double* dydt,
                                         std::size_t lanes) {
        for (std::size_t g = 0; g < groups; ++g)
            prog.eval(t - groupDelay[g] / f1, f1, y, sig[g]);
        for (std::size_t i = 0; i < lanes; ++i) {
            const PpvModel& m = *latches_[i].model;
            const double theta = f1 * t + y[i];
            double proj = 0.0;
            for (const FlatConn& c : conns[i])
                proj += m.ppvAt(c.unknownIndex, theta) * c.gain *
                        sig[c.group][static_cast<std::size_t>(c.signal)];
            dydt[i] = (m.f0() - f1) + m.f0() * proj;
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
