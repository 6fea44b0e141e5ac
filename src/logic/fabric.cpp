#include "logic/fabric.hpp"

#include <algorithm>
#include <sstream>

namespace phlogon::logic {

const char* gateOpName(GateOp op) {
    switch (op) {
        case GateOp::Buf: return "buf";
        case GateOp::Not: return "not";
        case GateOp::And: return "and";
        case GateOp::Nand: return "nand";
        case GateOp::Or: return "or";
        case GateOp::Nor: return "nor";
        case GateOp::Xor: return "xor";
        case GateOp::Xnor: return "xnor";
        case GateOp::Maj: return "maj";
    }
    return "?";
}

GateOp gateOpFromName(const std::string& name) {
    static const std::pair<const char*, GateOp> kOps[] = {
        {"buf", GateOp::Buf},   {"not", GateOp::Not}, {"and", GateOp::And},
        {"nand", GateOp::Nand}, {"or", GateOp::Or},   {"nor", GateOp::Nor},
        {"xor", GateOp::Xor},   {"xnor", GateOp::Xnor}, {"maj", GateOp::Maj},
    };
    for (const auto& [kw, op] : kOps)
        if (name == kw) return op;
    throw FabricError("unknown gate op '" + name + "'");
}

LogicNetlist::NetId LogicNetlist::intern(const std::string& name) {
    const auto it = byName_.find(name);
    if (it != byName_.end()) return it->second;
    const NetId id = static_cast<NetId>(names_.size());
    names_.push_back(name);
    drivers_.push_back(Driver::None);
    byName_.emplace(name, id);
    return id;
}

LogicNetlist::NetId LogicNetlist::net(const std::string& name) {
    if (name.empty()) throw FabricError("net name must be non-empty");
    return intern(name);
}

LogicNetlist::NetId LogicNetlist::findNet(const std::string& name) const {
    const auto it = byName_.find(name);
    if (it == byName_.end()) throw FabricError("unknown net '" + name + "'");
    return it->second;
}

void LogicNetlist::setDriver(NetId id, Driver kind, const char* what) {
    auto& d = drivers_[static_cast<std::size_t>(id)];
    if (d != Driver::None)
        throw FabricError("net '" + netName(id) + "' is multiply driven (" + what +
                          " vs existing driver)");
    d = kind;
}

LogicNetlist::NetId LogicNetlist::addInput(const std::string& name) {
    const NetId id = net(name);
    setDriver(id, Driver::Input, "input");
    inputs_.push_back(id);
    return id;
}

LogicNetlist::NetId LogicNetlist::addGateNets(GateOp op, NetId out, std::vector<NetId> ins) {
    const std::size_t n = ins.size();
    switch (op) {
        case GateOp::Buf:
        case GateOp::Not:
            if (n != 1)
                throw FabricError(std::string(gateOpName(op)) + " gate '" + netName(out) +
                                  "' takes exactly 1 input, got " + std::to_string(n));
            break;
        case GateOp::Maj:
            if (n < 3 || n % 2 == 0)
                throw FabricError("maj gate '" + netName(out) +
                                  "' needs an odd fan-in >= 3, got " + std::to_string(n));
            break;
        default:
            if (n < 2)
                throw FabricError(std::string(gateOpName(op)) + " gate '" + netName(out) +
                                  "' needs >= 2 inputs, got " + std::to_string(n));
            break;
    }
    setDriver(out, Driver::Gate, gateOpName(op));
    gates_.push_back({op, out, std::move(ins)});
    return out;
}

LogicNetlist::NetId LogicNetlist::addGate(GateOp op, const std::string& out,
                                          const std::vector<std::string>& ins) {
    std::vector<NetId> inIds;
    inIds.reserve(ins.size());
    for (const auto& name : ins) inIds.push_back(net(name));
    return addGateNets(op, net(out), std::move(inIds));
}

LogicNetlist::NetId LogicNetlist::addDff(const std::string& q, const std::string& d) {
    const NetId qId = net(q);
    const NetId dId = net(d);
    setDriver(qId, Driver::Dff, "dff");
    dffs_.push_back({qId, dId});
    return qId;
}

void LogicNetlist::addOutput(const std::string& name) { outputs_.push_back(net(name)); }

std::vector<std::size_t> LogicNetlist::topoOrder() const {
    // Combinational dependency graph: net -> index of the gate driving it.
    std::vector<int> gateOf(names_.size(), -1);
    for (std::size_t g = 0; g < gates_.size(); ++g)
        gateOf[static_cast<std::size_t>(gates_[g].out)] = static_cast<int>(g);

    std::vector<std::size_t> order;
    order.reserve(gates_.size());
    // 0 unvisited, 1 on the current DFS path, 2 placed.
    std::vector<unsigned char> state(gates_.size(), 0);
    // Explicit DFS frames so the cycle path can be reconstructed and deep
    // fabrics cannot overflow the call stack.
    struct Frame {
        std::size_t gate;
        std::size_t nextIn;
    };
    std::vector<Frame> stack;
    for (std::size_t root = 0; root < gates_.size(); ++root) {
        if (state[root] != 0) continue;
        stack.push_back({root, 0});
        state[root] = 1;
        while (!stack.empty()) {
            Frame& f = stack.back();
            const Gate& g = gates_[f.gate];
            if (f.nextIn < g.ins.size()) {
                const NetId in = g.ins[f.nextIn++];
                const int pred = gateOf[static_cast<std::size_t>(in)];
                if (pred < 0) continue;  // input / dff q / undriven: breaks path
                const auto p = static_cast<std::size_t>(pred);
                if (state[p] == 1) {
                    // Cycle: the path runs from the first stack occurrence of
                    // `pred` to the top, closing back on `in`.
                    std::ostringstream msg;
                    msg << "combinational cycle: ";
                    std::size_t start = 0;
                    while (stack[start].gate != p) ++start;
                    for (std::size_t s = start; s < stack.size(); ++s)
                        msg << netName(gates_[stack[s].gate].out) << " -> ";
                    msg << netName(in);
                    throw FabricError(msg.str());
                }
                if (state[p] == 0) {
                    state[p] = 1;
                    stack.push_back({p, 0});
                }
            } else {
                state[f.gate] = 2;
                order.push_back(f.gate);
                stack.pop_back();
            }
        }
    }
    return order;
}

void LogicNetlist::validate(const ValidateOptions& opt) const {
    std::vector<std::string> problems;
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (drivers_[i] == Driver::None)
            problems.push_back("net '" + names_[i] + "' is undriven");
    }
    for (const Gate& g : gates_) {
        if (g.ins.size() > opt.maxFanIn)
            problems.push_back("gate '" + netName(g.out) + "' fan-in " +
                               std::to_string(g.ins.size()) + " exceeds limit " +
                               std::to_string(opt.maxFanIn));
    }
    if (inputs_.empty() && dffs_.empty())
        problems.push_back("netlist has neither inputs nor flip-flops");
    try {
        (void)topoOrder();
    } catch (const FabricError& e) {
        problems.push_back(e.what());
    }
    if (!problems.empty()) {
        std::string msg = "invalid netlist:";
        for (const auto& p : problems) msg += "\n  - " + p;
        throw FabricError(msg);
    }
}

int LogicNetlist::evalGate(GateOp op, const std::vector<int>& bits) {
    auto all = [&] {
        for (int b : bits)
            if (!b) return 0;
        return 1;
    };
    auto any = [&] {
        for (int b : bits)
            if (b) return 1;
        return 0;
    };
    auto parity = [&] {
        int p = 0;
        for (int b : bits) p ^= (b ? 1 : 0);
        return p;
    };
    switch (op) {
        case GateOp::Buf: return bits[0] ? 1 : 0;
        case GateOp::Not: return bits[0] ? 0 : 1;
        case GateOp::And: return all();
        case GateOp::Nand: return all() ? 0 : 1;
        case GateOp::Or: return any();
        case GateOp::Nor: return any() ? 0 : 1;
        case GateOp::Xor: return parity();
        case GateOp::Xnor: return parity() ? 0 : 1;
        case GateOp::Maj: {
            std::size_t ones = 0;
            for (int b : bits) ones += b ? 1 : 0;
            return 2 * ones > bits.size() ? 1 : 0;
        }
    }
    return 0;
}

std::vector<int> LogicNetlist::evalNets(const std::vector<int>& inputBits,
                                        const std::vector<int>& dffState) const {
    if (inputBits.size() != inputs_.size())
        throw FabricError("evalNets: expected " + std::to_string(inputs_.size()) +
                          " input bits, got " + std::to_string(inputBits.size()));
    if (dffState.size() != dffs_.size())
        throw FabricError("evalNets: expected " + std::to_string(dffs_.size()) +
                          " state bits, got " + std::to_string(dffState.size()));
    std::vector<int> val(names_.size(), 0);
    for (std::size_t i = 0; i < inputs_.size(); ++i)
        val[static_cast<std::size_t>(inputs_[i])] = inputBits[i] ? 1 : 0;
    for (std::size_t i = 0; i < dffs_.size(); ++i)
        val[static_cast<std::size_t>(dffs_[i].q)] = dffState[i] ? 1 : 0;
    std::vector<int> bits;
    for (const std::size_t g : topoOrder()) {
        const Gate& gate = gates_[g];
        bits.clear();
        for (const NetId in : gate.ins) bits.push_back(val[static_cast<std::size_t>(in)]);
        val[static_cast<std::size_t>(gate.out)] = evalGate(gate.op, bits);
    }
    return val;
}

std::vector<int> LogicNetlist::step(const std::vector<int>& inputBits,
                                    std::vector<int>& dffState) const {
    const std::vector<int> val = evalNets(inputBits, dffState);
    std::vector<int> out;
    out.reserve(outputs_.size());
    for (const NetId o : outputs_) out.push_back(val[static_cast<std::size_t>(o)]);
    for (std::size_t i = 0; i < dffs_.size(); ++i)
        dffState[i] = val[static_cast<std::size_t>(dffs_[i].d)];
    return out;
}

LogicNetlist parseLogicNetlist(const std::string& text) {
    LogicNetlist nl;
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        const auto slashes = line.find("//");
        if (slashes != std::string::npos) line.erase(slashes);
        std::istringstream ls(line);
        std::vector<std::string> tok;
        for (std::string w; ls >> w;) tok.push_back(std::move(w));
        if (tok.empty()) continue;
        try {
            if (tok[0] == "input") {
                if (tok.size() < 2) throw FabricError("input: needs at least one net");
                for (std::size_t i = 1; i < tok.size(); ++i) nl.addInput(tok[i]);
            } else if (tok[0] == "output") {
                if (tok.size() < 2) throw FabricError("output: needs at least one net");
                for (std::size_t i = 1; i < tok.size(); ++i) nl.addOutput(tok[i]);
            } else if (tok[0] == "dff") {
                if (tok.size() != 3) throw FabricError("dff: expected 'dff <q> <d>'");
                nl.addDff(tok[1], tok[2]);
            } else {
                const GateOp op = gateOpFromName(tok[0]);
                if (tok.size() < 3)
                    throw FabricError(std::string(gateOpName(op)) +
                                      ": expected '<op> <out> <in>...'");
                nl.addGate(op, tok[1], {tok.begin() + 2, tok.end()});
            }
        } catch (const FabricError& e) {
            throw FabricError("line " + std::to_string(lineNo) + ": " + e.what());
        }
    }
    nl.validate();
    return nl;
}

}  // namespace phlogon::logic
