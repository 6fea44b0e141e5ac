#include "logic/workloads.hpp"

#include <string>
#include <vector>

namespace phlogon::logic {

namespace {

std::string idx(const std::string& stem, std::size_t i) { return stem + std::to_string(i); }

/// Full-adder cell: sum = XOR(a, b, c), carry = MAJ(a, b, c).
void fullAdder(LogicNetlist& nl, const std::string& a, const std::string& b,
               const std::string& c, const std::string& sum, const std::string& carry) {
    nl.addGate(GateOp::Xor, sum, {a, b, c});
    nl.addGate(GateOp::Maj, carry, {a, b, c});
}

/// Half-adder cell: sum = XOR(a, b), carry = AND(a, b).
void halfAdder(LogicNetlist& nl, const std::string& a, const std::string& b,
               const std::string& sum, const std::string& carry) {
    nl.addGate(GateOp::Xor, sum, {a, b});
    nl.addGate(GateOp::And, carry, {a, b});
}

/// 2:1 mux out = sel ? x1 : x0 from AND/OR/NOT (nsel must already exist).
void mux2(LogicNetlist& nl, const std::string& out, const std::string& sel,
          const std::string& nsel, const std::string& x1, const std::string& x0) {
    nl.addGate(GateOp::And, out + ".t1", {sel, x1});
    nl.addGate(GateOp::And, out + ".t0", {nsel, x0});
    nl.addGate(GateOp::Or, out, {out + ".t1", out + ".t0"});
}

void addRippleCore(LogicNetlist& nl, std::size_t n) {
    std::string carry = "cin";
    for (std::size_t i = 0; i < n; ++i) {
        const std::string next = i + 1 == n ? std::string("cout") : idx("c", i + 1);
        fullAdder(nl, idx("a", i), idx("b", i), carry, idx("s", i), next);
        carry = next;
    }
}

}  // namespace

LogicNetlist serialAdder() {
    LogicNetlist nl;
    nl.addInput("a");
    nl.addInput("b");
    nl.addDff("carry", "cout");
    nl.addGate(GateOp::Maj, "cout", {"a", "b", "carry"});
    nl.addGate(GateOp::Not, "ncout", {"cout"});
    nl.addGate(GateOp::Maj, "sum", {"a", "b", "carry", "ncout", "ncout"});
    nl.addOutput("sum");
    nl.addOutput("cout");
    nl.validate();
    return nl;
}

LogicNetlist rippleAdder(std::size_t n) {
    if (n == 0) throw FabricError("rippleAdder: width must be positive");
    LogicNetlist nl;
    for (std::size_t i = 0; i < n; ++i) nl.addInput(idx("a", i));
    for (std::size_t i = 0; i < n; ++i) nl.addInput(idx("b", i));
    nl.addInput("cin");
    addRippleCore(nl, n);
    for (std::size_t i = 0; i < n; ++i) nl.addOutput(idx("s", i));
    nl.addOutput("cout");
    nl.validate();
    return nl;
}

LogicNetlist registeredRippleAdder(std::size_t n) {
    if (n == 0) throw FabricError("registeredRippleAdder: width must be positive");
    LogicNetlist nl;
    for (std::size_t i = 0; i < n; ++i) nl.addInput(idx("a", i));
    for (std::size_t i = 0; i < n; ++i) nl.addInput(idx("b", i));
    nl.addInput("cin");
    addRippleCore(nl, n);
    for (std::size_t i = 0; i < n; ++i) nl.addDff(idx("rs", i), idx("s", i));
    nl.addDff("rcout", "cout");
    for (std::size_t i = 0; i < n; ++i) nl.addOutput(idx("rs", i));
    nl.addOutput("rcout");
    nl.validate();
    return nl;
}

LogicNetlist carrySelectAdder(std::size_t n, std::size_t block) {
    if (n == 0 || block == 0) throw FabricError("carrySelectAdder: bad width/block");
    LogicNetlist nl;
    for (std::size_t i = 0; i < n; ++i) nl.addInput(idx("a", i));
    for (std::size_t i = 0; i < n; ++i) nl.addInput(idx("b", i));
    nl.addInput("cin");

    std::string carry = "cin";  // true carry entering the current block
    for (std::size_t lo = 0; lo < n; lo += block) {
        const std::size_t hi = std::min(n, lo + block);
        const std::string tag = "k" + std::to_string(lo / block);
        // Two speculative ripple chains per block: carry-in 0 and 1 (the
        // constant carries are folded into the first cell: s = XOR2/XNOR2,
        // c = AND/OR of the first pair).
        std::string c0, c1;
        for (std::size_t i = lo; i < hi; ++i) {
            const std::string a = idx("a", i), b = idx("b", i);
            const std::string s0 = tag + ".s0." + std::to_string(i);
            const std::string s1 = tag + ".s1." + std::to_string(i);
            const std::string n0 = tag + ".c0." + std::to_string(i + 1);
            const std::string n1 = tag + ".c1." + std::to_string(i + 1);
            if (i == lo) {
                nl.addGate(GateOp::Xor, s0, {a, b});
                nl.addGate(GateOp::And, n0, {a, b});
                nl.addGate(GateOp::Xnor, s1, {a, b});
                nl.addGate(GateOp::Or, n1, {a, b});
            } else {
                fullAdder(nl, a, b, c0, s0, n0);
                fullAdder(nl, a, b, c1, s1, n1);
            }
            c0 = n0;
            c1 = n1;
        }
        // Select against the true carry arriving at this block.
        const std::string nsel = tag + ".nsel";
        nl.addGate(GateOp::Not, nsel, {carry});
        for (std::size_t i = lo; i < hi; ++i)
            mux2(nl, idx("s", i), carry, nsel, tag + ".s1." + std::to_string(i),
                 tag + ".s0." + std::to_string(i));
        const std::string nextCarry = hi == n ? std::string("cout") : tag + ".carry";
        mux2(nl, nextCarry, carry, nsel, c1, c0);
        carry = nextCarry;
    }

    for (std::size_t i = 0; i < n; ++i) nl.addOutput(idx("s", i));
    nl.addOutput("cout");
    nl.validate();
    return nl;
}

LogicNetlist upCounter(std::size_t n) {
    if (n == 0) throw FabricError("upCounter: width must be positive");
    LogicNetlist nl;
    for (std::size_t i = 0; i < n; ++i) nl.addDff(idx("q", i), idx("d", i));
    nl.addGate(GateOp::Not, "d0", {"q0"});
    std::string all = "q0";  // AND of q0..q{i-1}
    for (std::size_t i = 1; i < n; ++i) {
        nl.addGate(GateOp::Xor, idx("d", i), {idx("q", i), all});
        if (i + 1 < n) {
            const std::string next = idx("t", i);
            nl.addGate(GateOp::And, next, {all, idx("q", i)});
            all = next;
        }
    }
    for (std::size_t i = 0; i < n; ++i) nl.addOutput(idx("q", i));
    nl.validate();
    return nl;
}

LogicNetlist lfsr(std::size_t n) {
    if (n < 2) throw FabricError("lfsr: need at least 2 stages");
    LogicNetlist nl;
    nl.addDff("q0", "fb");
    for (std::size_t i = 1; i < n; ++i) nl.addDff(idx("q", i), idx("q", i - 1));
    nl.addGate(GateOp::Xnor, "fb", {idx("q", n - 1), idx("q", n - 2)});
    for (std::size_t i = 0; i < n; ++i) nl.addOutput(idx("q", i));
    nl.validate();
    return nl;
}

LogicNetlist multiplier4x4() {
    constexpr std::size_t kN = 4;
    LogicNetlist nl;
    for (std::size_t i = 0; i < kN; ++i) nl.addInput(idx("a", i));
    for (std::size_t i = 0; i < kN; ++i) nl.addInput(idx("b", i));

    // Partial products pp{i}{j} = a_i AND b_j (weight 2^{i+j}).
    for (std::size_t i = 0; i < kN; ++i)
        for (std::size_t j = 0; j < kN; ++j)
            nl.addGate(GateOp::And, "pp" + std::to_string(i) + std::to_string(j),
                       {idx("a", i), idx("b", j)});

    // Row-by-row accumulation: cur[p] is the partial sum bit of weight 2^p.
    std::vector<std::string> cur(kN);
    for (std::size_t j = 0; j < kN; ++j) cur[j] = "pp0" + std::to_string(j);
    for (std::size_t r = 1; r < kN; ++r) {
        const std::string tag = "r" + std::to_string(r);
        std::string carry;
        for (std::size_t j = 0; j < kN; ++j) {
            const std::size_t p = r + j;
            const std::string pp = "pp" + std::to_string(r) + std::to_string(j);
            const std::string sum = tag + ".s" + std::to_string(p);
            const std::string cNext = tag + ".c" + std::to_string(p + 1);
            if (j == 0) {
                halfAdder(nl, cur[p], pp, sum, cNext);
            } else if (p < cur.size()) {
                fullAdder(nl, cur[p], pp, carry, sum, cNext);
            } else {
                // Above the previous partial sum: only pp and the carry.
                halfAdder(nl, pp, carry, sum, cNext);
            }
            cur.resize(std::max(cur.size(), p + 1));
            cur[p] = sum;
            carry = cNext;
        }
        cur.push_back(carry);  // weight 2^{r+kN}
    }

    for (std::size_t p = 0; p < 2 * kN; ++p) {
        nl.addGate(GateOp::Buf, idx("p", p), {cur[p]});
        nl.addOutput(idx("p", p));
    }
    nl.validate();
    return nl;
}

LogicNetlist shiftRegister(std::size_t n) {
    if (n == 0) throw FabricError("shiftRegister: need at least one stage");
    LogicNetlist nl;
    nl.addInput("d");
    nl.addDff("q0", "d");
    for (std::size_t i = 1; i < n; ++i) nl.addDff(idx("q", i), idx("q", i - 1));
    nl.addOutput(idx("q", n - 1));
    nl.validate();
    return nl;
}

std::vector<int> toBits(std::uint64_t value, std::size_t n) {
    std::vector<int> bits(n, 0);
    for (std::size_t i = 0; i < n; ++i) bits[i] = static_cast<int>((value >> i) & 1u);
    return bits;
}

std::uint64_t fromBits(const std::vector<int>& bits) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bits.size(); ++i)
        if (bits[i]) v |= (std::uint64_t{1} << i);
    return v;
}

}  // namespace phlogon::logic
