#include "core/phase_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/batch_ode.hpp"
#include "numeric/simd/simd.hpp"
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
    const Program prog(*this, {id});
    std::vector<double> out;
    prog.eval(t, f1, dphi, out);
    return out[static_cast<std::size_t>(id)];
}

namespace {

std::vector<PhaseSystem::SignalId> everySignal(const PhaseSystem& sys) {
    std::vector<PhaseSystem::SignalId> ids(sys.signalCount());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PhaseSystem::SignalId>(i);
    return ids;
}

}  // namespace

PhaseSystem::Program::Program(const PhaseSystem& sys) : Program(sys, everySignal(sys)) {}

PhaseSystem::Program::Program(const PhaseSystem& sys, const std::vector<SignalId>& roots)
    : sys_(&sys) {
    const auto& sigs = sys.signals_;
    const std::size_t n = sigs.size();
    const auto sig = [&](SignalId id) -> const Signal& {
        return sigs[static_cast<std::size_t>(id)];
    };
    // Collapse a placeholder chain (bindPlaceholder guarantees acyclicity).
    const auto resolve = [&](SignalId id) {
        while (sig(id).kind == SignalKind::Placeholder) {
            if (sig(id).target < 0)
                throw std::logic_error("PhaseSystem::Program: unbound placeholder '" +
                                       sig(id).label + "'");
            id = sig(id).target;
        }
        return id;
    };

    // DAG level of every cone signal (iterative DFS postorder over resolved
    // fan-in): 0 for externals and latch outputs, 1 + the deepest input for
    // a gate.  addGate only accepts earlier ids, but a bound placeholder
    // points forward, so creation order alone is not an evaluation order.
    constexpr int kOutside = -1, kOpen = -2;
    std::vector<int> level(n, kOutside);
    std::vector<SignalId> stack;
    for (const SignalId root : roots) {
        if (root < 0 || static_cast<std::size_t>(root) >= n)
            throw std::out_of_range("PhaseSystem::Program: no signal " + std::to_string(root));
        const SignalId target = resolve(root);
        if (target != root) copies_.emplace_back(root, target);
        stack.push_back(target);
        while (!stack.empty()) {
            const SignalId id = stack.back();
            int& lv = level[static_cast<std::size_t>(id)];
            if (lv >= 0) {
                stack.pop_back();
            } else if (sig(id).kind != SignalKind::Gate) {
                lv = 0;
                stack.pop_back();
            } else if (lv == kOutside) {
                lv = kOpen;
                for (const auto& [in, w] : sig(id).inputs) {
                    (void)w;
                    const SignalId r = resolve(in);
                    if (level[static_cast<std::size_t>(r)] == kOutside) stack.push_back(r);
                }
            } else {
                int deepest = 0;
                for (const auto& [in, w] : sig(id).inputs) {
                    (void)w;
                    deepest = std::max(deepest, level[static_cast<std::size_t>(resolve(in))]);
                }
                lv = deepest + 1;
                stack.pop_back();
            }
        }
    }

    // Flat layout, ascending ids within each kind; gates by level, the
    // clipped ones of a level first.
    std::vector<SignalId> gates;
    for (std::size_t i = 0; i < n; ++i) {
        const SignalId id = static_cast<SignalId>(i);
        if (level[i] < 0) continue;
        const Signal& s = sigs[i];
        if (s.kind == SignalKind::External) {
            externals_.push_back(id);
        } else if (s.kind == SignalKind::LatchOutput) {
            laneLatch_.push_back(static_cast<std::size_t>(s.latch));
            lanePeak_.push_back(sys.latches_[static_cast<std::size_t>(s.latch)].model->dphiPeak());
            laneSignal_.push_back(id);
        } else {
            gates.push_back(id);
        }
    }
    const auto clipped = [&](SignalId id) { return sig(id).clip > 0.0; };
    std::stable_sort(gates.begin(), gates.end(), [&](SignalId a, SignalId b) {
        const int la = level[static_cast<std::size_t>(a)];
        const int lb = level[static_cast<std::size_t>(b)];
        return la != lb ? la < lb : clipped(a) && !clipped(b);
    });
    scratchSize_ = laneLatch_.size();
    fanInBegin_.push_back(0);
    for (std::size_t g = 0; g < gates.size(); ++g) {
        const Signal& s = sig(gates[g]);
        if (g == 0 || level[static_cast<std::size_t>(gates[g])] !=
                          level[static_cast<std::size_t>(gates[g - 1])])
            levels_.push_back({g, g, g});
        Level& lv = levels_.back();
        lv.end = g + 1;
        if (s.clip > 0.0) lv.clippedEnd = g + 1;
        scratchSize_ = std::max(scratchSize_, lv.clippedEnd - lv.begin);
        gateSignal_.push_back(gates[g]);
        gateInvert_.push_back(s.invert ? 1 : 0);
        gateClip_.push_back(s.clip);
        for (const auto& [in, w] : s.inputs) {
            fanIn_.push_back(resolve(in));
            weight_.push_back(w);
        }
        fanInBegin_.push_back(fanIn_.size());
    }
}

void PhaseSystem::Program::eval(double t, double f1, const double* dphi,
                                std::vector<double>& out, std::vector<double>& scratch) const {
    out.resize(sys_->signals_.size());
    if (scratch.size() < scratchSize_) scratch.resize(scratchSize_);
    double* v = out.data();
    double* buf = scratch.data();
    const num::simd::Kernels& kr = num::simd::kernels(num::simd::resolveTier());

    for (const SignalId id : externals_)
        v[id] = sys_->signals_[static_cast<std::size_t>(id)].external(t);

    // Unit-amplitude fundamental of each latch's output: the phase-logic
    // value the latch presents to gates.  (Harmonics of the raw waveform are
    // deliberately dropped; at circuit level they produce small lock-phase
    // offsets, at macromodel level the fundamental is the clean abstraction.)
    const double ft = f1 * t;
    const std::size_t lanes = laneLatch_.size();
    for (std::size_t j = 0; j < lanes; ++j) buf[j] = (ft + dphi[laneLatch_[j]]) - lanePeak_[j];
    kr.cos2pi(buf, buf, lanes);
    for (std::size_t j = 0; j < lanes; ++j) v[laneSignal_[j]] = buf[j];

    const auto gateSum = [&](std::size_t g) {
        double sum = 0.0;
        for (std::size_t e = fanInBegin_[g]; e < fanInBegin_[g + 1]; ++e)
            sum += weight_[e] * v[fanIn_[e]];
        return gateInvert_[g] ? -sum : sum;
    };
    for (const Level& lv : levels_) {
        // clip * tanh(sum / clip) for the clipped gates, the sum otherwise.
        for (std::size_t g = lv.begin; g < lv.clippedEnd; ++g)
            buf[g - lv.begin] = gateSum(g) / gateClip_[g];
        kr.tanh(buf, buf, lv.clippedEnd - lv.begin);
        for (std::size_t g = lv.begin; g < lv.clippedEnd; ++g)
            v[gateSignal_[g]] = gateClip_[g] * buf[g - lv.begin];
        for (std::size_t g = lv.clippedEnd; g < lv.end; ++g) v[gateSignal_[g]] = gateSum(g);
    }

    for (const auto& [ph, target] : copies_) v[ph] = v[target];
}

void PhaseSystem::Program::eval(double t, double f1, const num::Vec& dphi,
                                std::vector<double>& out) const {
    if (dphi.size() != sys_->latchCount())
        throw std::invalid_argument("PhaseSystem::Program::eval: dphi size mismatch");
    std::vector<double> scratch;
    eval(t, f1, dphi.data(), out, scratch);
}

PhaseSystem::Result PhaseSystem::simulate(double f1, double t0, double t1, const num::Vec& dphi0,
                                          std::size_t stepsPerCycle, std::size_t storeEvery) const {
    OBS_SPAN("phase.simulate");
    Result res;
    const std::size_t k = latches_.size();
    if (dphi0.size() != k)
        throw std::invalid_argument("PhaseSystem::simulate: dphi0 size mismatch");
    if (!(f1 > 0) || !(t1 > t0)) throw std::invalid_argument("PhaseSystem::simulate: bad span");

    // Group connections by exact delay value: one gate-network pass per
    // (RK stage, distinct delay) computes the signals that delay's
    // connections read, at the shifted time t - delayCycles / f1.  The latch
    // phases are held at their stage values over the delay, a fraction of a
    // cycle.  The PPV values come from one ppvMany call per lane set: the
    // latches that share a model and read the same unknown.
    struct LaneSet {
        const PpvModel* model;
        std::size_t unknownIndex;
        std::vector<std::size_t> latches;
        std::size_t offset = 0;  ///< first slot of the set in the PPV value array
    };
    struct FlatConn {
        std::size_t set, slot;  ///< lane set, then PPV value slot
        std::size_t group;
        SignalId signal;
        double gain;
    };
    std::vector<double> groupDelay;
    std::vector<std::vector<SignalId>> groupRoots;
    std::vector<LaneSet> sets;
    std::vector<FlatConn> conns;
    std::vector<std::size_t> connBegin{0};
    for (std::size_t i = 0; i < k; ++i) {
        const PpvModel* m = latches_[i].model.get();
        for (const Connection& c : connections_[i]) {
            std::size_t g = 0;
            while (g < groupDelay.size() && groupDelay[g] != c.delayCycles) ++g;
            if (g == groupDelay.size()) {
                groupDelay.push_back(c.delayCycles);
                groupRoots.emplace_back();
            }
            groupRoots[g].push_back(c.signal);
            std::size_t s = 0;
            while (s < sets.size() && (sets[s].model != m || sets[s].unknownIndex != c.unknownIndex))
                ++s;
            if (s == sets.size()) sets.push_back({m, c.unknownIndex, {}});
            if (sets[s].latches.empty() || sets[s].latches.back() != i) sets[s].latches.push_back(i);
            conns.push_back({s, sets[s].latches.size() - 1, g, c.signal, c.gain});
        }
        connBegin.push_back(conns.size());
    }
    const std::size_t groups = groupDelay.size();
    std::size_t slots = 0, widest = 0;
    for (LaneSet& set : sets) {
        set.offset = slots;
        slots += set.latches.size();
        widest = std::max(widest, set.latches.size());
    }
    for (FlatConn& c : conns) c.slot += sets[c.set].offset;

    std::vector<Program> progs;
    progs.reserve(groups);
    for (const auto& roots : groupRoots) progs.emplace_back(*this, roots);

    std::vector<std::vector<double>> sig(groups);
    std::vector<double> scratch, theta(widest), ppv(slots);
    const num::BatchRhsCoupled rhs = [&](double t, const double* y, double* dydt,
                                         std::size_t lanes) {
        for (std::size_t g = 0; g < groups; ++g)
            progs[g].eval(t - groupDelay[g] / f1, f1, y, sig[g], scratch);
        const double ft = f1 * t;
        for (const LaneSet& set : sets) {
            for (std::size_t j = 0; j < set.latches.size(); ++j) theta[j] = ft + y[set.latches[j]];
            set.model->ppvMany(set.unknownIndex, theta.data(), ppv.data() + set.offset,
                               set.latches.size());
        }
        for (std::size_t i = 0; i < lanes; ++i) {
            const PpvModel& m = *latches_[i].model;
            double proj = 0.0;
            for (std::size_t c = connBegin[i]; c < connBegin[i + 1]; ++c) {
                const FlatConn& fc = conns[c];
                proj += ppv[fc.slot] * fc.gain * sig[fc.group][static_cast<std::size_t>(fc.signal)];
            }
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
