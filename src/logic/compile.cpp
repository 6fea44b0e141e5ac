#include "logic/compile.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phlogon/encoding.hpp"
#include "phlogon/gates.hpp"

namespace phlogon::logic {

namespace {

using SignalId = core::PhaseSystem::SignalId;

/// Combinational gate soft-clip level.
constexpr double kGateClip = 0.5;

/// Lowers one combinational gate onto phase majority/NOT primitives.
struct GateLowerer {
    core::PhaseSystem& sys;
    SignalId const0;
    SignalId const1;

    SignalId norm(SignalId raw, const std::string& label) const {
        // Worst-case winning margin of a majority vote is one unit (a 2:1
        // split), so the clipped output is renormalized against a unit
        // resultant: identities like the sum below nearly cancel and are
        // sensitive to amplitude mismatch.
        return addUnitNormalizer(sys, raw, 1.0, kGateClip, label);
    }

    /// xor(a, b) = MAJ(a, b, 0, 2*~t),  t = AND(a, b)  — the serial adder's
    /// sum identity (workloads.hpp) with the carry input pinned to constant 0.
    SignalId xor2(SignalId a, SignalId b, const std::string& label) const {
        const auto andRaw = sys.addGate({{a, 1.0}, {b, 1.0}, {const0, 1.0}}, false, kGateClip,
                                        label + ".and.raw");
        const auto t = norm(andRaw, label + ".and");
        const auto tBar = addNotGate(sys, t, label + ".nand");
        const auto raw = sys.addGate({{a, 1.0}, {b, 1.0}, {const0, 1.0}, {tBar, 2.0}}, false,
                                     kGateClip, label + ".raw");
        return norm(raw, label);
    }

    SignalId lower(const LogicNetlist::Gate& g, const std::vector<SignalId>& netSig,
                   const std::string& name) const {
        std::vector<std::pair<SignalId, double>> ins;
        ins.reserve(g.ins.size() + 1);
        for (const auto in : g.ins) ins.push_back({netSig[static_cast<std::size_t>(in)], 1.0});
        const double nIns = static_cast<double>(g.ins.size());
        switch (g.op) {
            case GateOp::Buf:
                return sys.addGate({ins[0]}, false, 0.0, name);
            case GateOp::Not:
                return addNotGate(sys, ins[0].first, name);
            case GateOp::Maj:
                return norm(sys.addGate(std::move(ins), false, kGateClip, name + ".raw"), name);
            case GateOp::And:
            case GateOp::Nand:
                // AND(n) = MAJ(a_1..a_n, (n-1) x const0): the constant loses
                // the vote only when every input is 1.
                ins.push_back({const0, nIns - 1.0});
                return norm(sys.addGate(std::move(ins), g.op == GateOp::Nand, kGateClip,
                                        name + ".raw"),
                            name);
            case GateOp::Or:
            case GateOp::Nor:
                ins.push_back({const1, nIns - 1.0});
                return norm(sys.addGate(std::move(ins), g.op == GateOp::Nor, kGateClip,
                                        name + ".raw"),
                            name);
            case GateOp::Xor:
            case GateOp::Xnor: {
                SignalId acc = ins[0].first;
                for (std::size_t i = 1; i < ins.size(); ++i)
                    acc = xor2(acc, ins[i].first, name + ".x" + std::to_string(i));
                if (g.op == GateOp::Xnor) acc = addNotGate(sys, acc, name);
                return acc;
            }
        }
        throw FabricError("unhandled gate op");
    }
};

}  // namespace

CompiledFabric compileFabric(const LogicNetlist& netlist, const SyncLatchDesign& design,
                             std::vector<std::vector<int>> inputVectors,
                             const FabricCompileOptions& opt) {
    OBS_SPAN("fabric.compile");
    netlist.validate();
    if (inputVectors.empty())
        throw FabricError("compileFabric: need at least one input vector (slot)");
    for (const auto& v : inputVectors)
        if (v.size() != netlist.inputs().size())
            throw FabricError("compileFabric: input vector has " + std::to_string(v.size()) +
                              " bits, netlist has " + std::to_string(netlist.inputs().size()) +
                              " inputs");
    const double bitPeriod = opt.bitPeriodCycles / design.f1;
    if (!(bitPeriod > 0) || !std::isfinite(bitPeriod))
        throw FabricError("compileFabric: bit period must be positive and finite");

    CompiledFabric fab;
    fab.netlist = netlist;
    fab.ref = design.reference;
    fab.bitPeriod = bitPeriod;
    fab.slots = inputVectors.size();
    fab.schedule = std::move(inputVectors);

    core::PhaseSystem& sys = fab.sys;
    const PhaseReference& ref = fab.ref;

    // Fabric-shared signals: SYNC tone, constant levels and model (the
    // latch bus), the two clock phases.  Every latch couples to the same
    // externals.
    const PhaseLatchBus bus = addPhaseLatchBus(sys, design);
    const Bits clkBits = clockBits(fab.slots);
    const double halfSlot = fab.bitPeriod / 2.0;
    const auto clk = sys.addExternal(dataSignal(ref, clkBits, halfSlot), "fabric.clk");
    const auto clkBar =
        sys.addExternal(dataSignal(ref, invertBits(clkBits), halfSlot), "fabric.clkBar");

    fab.netSignals.assign(netlist.netCount(), -1);

    // Flip-flops first so every q net exists before gates read it; the D
    // inputs come out of the combinational network built afterwards, so each
    // closes through a placeholder.
    std::vector<SignalId> dFwd;
    dFwd.reserve(netlist.dffs().size());
    for (const auto& dff : netlist.dffs()) {
        const std::string qn = netlist.netName(dff.q);
        const auto fwd = sys.addPlaceholder(qn + ".d");
        dFwd.push_back(fwd);
        const PhaseDff ff = addPhaseDff(sys, design, bus, fwd, clk, clkBar, opt.latch, qn);
        fab.dffs.push_back({ff.master.latch, ff.slave.latch, ff.q2});
        fab.netSignals[static_cast<std::size_t>(dff.q)] = ff.q2;
    }

    // Primary inputs: one scheduled REF-aligned tone per input column.
    for (std::size_t i = 0; i < netlist.inputs().size(); ++i) {
        Bits col;
        col.reserve(fab.slots);
        for (std::size_t k = 0; k < fab.slots; ++k) col.push_back(fab.schedule[k][i]);
        const auto id = netlist.inputs()[i];
        fab.netSignals[static_cast<std::size_t>(id)] =
            sys.addExternal(dataSignal(ref, std::move(col), fab.bitPeriod), netlist.netName(id));
    }

    // Combinational network in dependency order.
    const GateLowerer low{sys, bus.const0, bus.const1};
    for (const std::size_t g : netlist.topoOrder()) {
        const auto& gate = netlist.gates()[g];
        fab.netSignals[static_cast<std::size_t>(gate.out)] =
            low.lower(gate, fab.netSignals, netlist.netName(gate.out));
    }

    // Close the flip-flop D loops (bindPlaceholder rejects any combinational
    // cycle the netlist validation might have let through).
    for (std::size_t i = 0; i < dFwd.size(); ++i)
        sys.bindPlaceholder(dFwd[i],
                            fab.netSignals[static_cast<std::size_t>(netlist.dffs()[i].d)]);

    for (const auto o : netlist.outputs())
        fab.outputSignals.push_back(fab.netSignals[static_cast<std::size_t>(o)]);

    // Power-on: every latch near the logic-0 lock phase (the small offset
    // mirrors the serial-adder tests: the latch settles onto the lock).
    fab.initialDphi.assign(sys.latchCount(), ref.phase0 + 0.02);

    PHLOGON_ADD_METRIC("fabric.compile.latches", sys.latchCount());
    PHLOGON_ADD_METRIC("fabric.compile.signals", sys.signalCount());
    return fab;
}

std::vector<std::vector<int>> decodeFabricRun(const CompiledFabric& fab,
                                              const core::PhaseSystem::Result& res) {
    OBS_SPAN("fabric.decode");
    const core::PhaseSystem::Program prog(fab.sys, fab.outputSignals);
    std::vector<std::vector<int>> out;
    out.reserve(fab.slots);
    for (std::size_t k = 0; k < fab.slots; ++k) {
        const double t = fab.decodeTime(k);
        out.push_back(decodeSignals(prog, fab.ref, t, dphiAt(res, t), fab.outputSignals));
    }
    return out;
}

namespace {

/// The signals one FabricIdealSim step decodes: the outputs, then the
/// flip-flop D nets (the bits the masters sample in the slot's second half).
std::vector<SignalId> idealSimSignals(const CompiledFabric& fab) {
    std::vector<SignalId> sigs = fab.outputSignals;
    sigs.reserve(sigs.size() + fab.dffs.size());
    for (const auto& dff : fab.netlist.dffs())
        sigs.push_back(fab.netSignals[static_cast<std::size_t>(dff.d)]);
    return sigs;
}

}  // namespace

FabricIdealSim::FabricIdealSim(const CompiledFabric& fab)
    : fab_(&fab),
      sigs_(idealSimSignals(fab)),
      prog_(fab.sys, sigs_),
      state_(fab.netlist.dffs().size(), 0) {}

std::vector<int> FabricIdealSim::step() {
    const CompiledFabric& fab = *fab_;
    if (slot_ >= fab.slots)
        throw FabricError("FabricIdealSim: ran past the compiled schedule (" +
                          std::to_string(fab.slots) + " slots)");
    // Pin every latch at the ideal lock phase of its held bit.  At the
    // decode instant CLK encodes 0: masters hold state_k (sampled last
    // slot), slaves are transparent copies — both sit at phaseForBit.
    num::Vec dphi(fab.sys.latchCount(), 0.0);
    for (std::size_t i = 0; i < fab.dffs.size(); ++i) {
        const double ph = fab.ref.phaseForBit(state_[i]);
        dphi[static_cast<std::size_t>(fab.dffs[i].master)] = ph;
        dphi[static_cast<std::size_t>(fab.dffs[i].slave)] = ph;
    }
    // One correlation pass decodes the outputs and the flip-flop D nets.
    const std::vector<int> bits = decodeSignals(prog_, fab.ref, fab.decodeTime(slot_), dphi, sigs_);
    std::vector<int> out(bits.begin(), bits.begin() + static_cast<long>(fab.outputSignals.size()));
    for (std::size_t i = 0; i < state_.size(); ++i)
        state_[i] = bits[fab.outputSignals.size() + i];
    ++slot_;
    return out;
}

}  // namespace phlogon::logic
