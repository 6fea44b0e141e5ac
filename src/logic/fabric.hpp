#pragma once
// Gate-level fabric IR: the netlist a designer writes (or generates) before
// it is lowered onto oscillator phase logic (compile.hpp).
//
// A LogicNetlist is a synchronous single-clock design: named nets driven by
// primary inputs, combinational gates (AND/OR/XOR/... plus the native
// majority primitive) and clocked D flip-flops (q_{k+1} = d_k).  Nets are
// created on first mention, so feedback through flip-flops can be written in
// any order; build-time validation then rejects every malformed structure
// before lowering, with the net names in the message: undriven nets,
// multiply-driven nets, bad fan-in, and combinational cycles (reported with
// the full cycle path).
//
// The class doubles as its own golden model: step() evaluates the Boolean
// semantics exactly, which is what the phase-domain equivalence harness
// (tests/logic/test_fabric_equivalence.cpp) checks compiled fabrics against.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace phlogon::logic {

/// Combinational gate types.  Maj is the native phase-logic primitive
/// (paper footnote 1); the Boolean connectives lower onto majority gates and
/// inversions during compilation.
enum class GateOp { Buf, Not, And, Nand, Or, Nor, Xor, Xnor, Maj };

const char* gateOpName(GateOp op);
/// Parse a lower-case gate keyword ("and", "maj", ...); throws FabricError.
GateOp gateOpFromName(const std::string& name);

/// Build/validation/parse errors of the fabric layer.
class FabricError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Structural-validation knobs (namespace scope so it can be a default
/// argument inside LogicNetlist).
struct ValidateOptions {
    /// Maximum gate fan-in a latch technology supports (phase majority
    /// gates lose noise margin with wide fan-in).
    std::size_t maxFanIn = 9;
};

class LogicNetlist {
public:
    using NetId = int;

    struct Gate {
        GateOp op;
        NetId out;
        std::vector<NetId> ins;
    };
    struct Dff {
        NetId q;  ///< latch output net
        NetId d;  ///< data input net, sampled each clock slot
    };

    // -- construction (builder API) ---------------------------------------
    /// Find-or-create a net by name (forward references are legal until
    /// validate()).
    NetId net(const std::string& name);
    /// Find an existing net; throws FabricError if absent.
    NetId findNet(const std::string& name) const;
    bool hasNet(const std::string& name) const { return byName_.count(name) != 0; }
    const std::string& netName(NetId id) const { return names_.at(static_cast<std::size_t>(id)); }
    std::size_t netCount() const { return names_.size(); }

    /// Declare a primary input net.  Throws if the net is already driven.
    NetId addInput(const std::string& name);
    /// Add a gate driving `out`.  Arity is checked immediately (Buf/Not take
    /// exactly one input, Maj an odd count >= 3, everything else >= 2);
    /// multiple drivers throw immediately with the net name.
    NetId addGate(GateOp op, const std::string& out, const std::vector<std::string>& ins);
    NetId addGateNets(GateOp op, NetId out, std::vector<NetId> ins);
    /// Add a clocked D flip-flop: net `q` holds the value `d` had in the
    /// previous clock slot (power-on state 0).
    NetId addDff(const std::string& q, const std::string& d);
    /// Mark a net as a primary output (decoded by the equivalence harness);
    /// order of calls defines the output order.
    void addOutput(const std::string& name);

    const std::vector<NetId>& inputs() const { return inputs_; }
    const std::vector<NetId>& outputs() const { return outputs_; }
    const std::vector<Gate>& gates() const { return gates_; }
    const std::vector<Dff>& dffs() const { return dffs_; }

    // -- validation -------------------------------------------------------
    /// Whole-netlist structural check: every net driven exactly once, every
    /// fan-in within limits, no combinational cycles.  Throws FabricError
    /// describing every violation found (cycles include the full net path).
    void validate(const ValidateOptions& opt = {}) const;

    /// Gate indices in dependency order (a gate appears after every gate
    /// driving one of its inputs; flip-flop outputs and primary inputs break
    /// dependencies).  Throws FabricError with the cycle path if the
    /// combinational graph is cyclic.
    std::vector<std::size_t> topoOrder() const;

    // -- Boolean reference semantics --------------------------------------
    /// Evaluate every net given input bits (aligned with inputs()) and the
    /// current flip-flop state (aligned with dffs()).  Returns one bit per
    /// net.
    std::vector<int> evalNets(const std::vector<int>& inputBits,
                              const std::vector<int>& dffState) const;
    /// One synchronous step: computes all nets, advances `dffState` in place
    /// (q_{k+1} = d_k, updated after all nets settle) and returns the output
    /// bits (aligned with outputs()).
    std::vector<int> step(const std::vector<int>& inputBits, std::vector<int>& dffState) const;

    /// Boolean value of one gate type over its input bits.
    static int evalGate(GateOp op, const std::vector<int>& bits);

private:
    enum class Driver { None, Input, Gate, Dff };
    NetId intern(const std::string& name);
    void setDriver(NetId id, Driver kind, const char* what);

    std::vector<std::string> names_;
    std::unordered_map<std::string, NetId> byName_;
    std::vector<Driver> drivers_;
    std::vector<NetId> inputs_;
    std::vector<NetId> outputs_;
    std::vector<Gate> gates_;
    std::vector<Dff> dffs_;
};

/// Parse the structural netlist text format.  One statement per line:
///
///     # comment (also "//"); blank lines ignored
///     input  <net> [<net> ...]
///     output <net> [<net> ...]
///     dff    <q> <d>
///     <op>   <out> <in> [<in> ...]     # op: buf not and nand or nor
///                                      #     xor xnor maj
///
/// Nets may be referenced before they are driven (feedback through dffs).
/// Throws FabricError with the offending line number; the result has been
/// validate()d.
LogicNetlist parseLogicNetlist(const std::string& text);

}  // namespace phlogon::logic
