#pragma once
// Multi-bit workload netlists for the fabric compiler: the designs the
// equivalence harness, the examples and the scaling benches all share.
// Every generator returns a validated LogicNetlist; Boolean semantics come
// from LogicNetlist::step itself (the netlist is its own golden model).

#include <cstdint>

#include "logic/fabric.hpp"

namespace phlogon::logic {

/// The paper's serial adder (Fig. 15): inputs a, b (one bit pair per clock
/// slot, LSB first); carry held in a flip-flop; outputs sum, cout.
///     cout = MAJ(a, b, carry),  sum = MAJ(a, b, carry, ~cout, ~cout)
/// Lowers onto 2 oscillator latches; one step() is one bit of
/// goldenSerialAdd (phlogon/golden.hpp).
LogicNetlist serialAdder();

/// Combinational N-bit ripple-carry adder: inputs a0..a{n-1}, b0..b{n-1},
/// cin; outputs s0..s{n-1}, cout.  sum = XOR3, carry = MAJ3 per bit.
LogicNetlist rippleAdder(std::size_t n);

/// Ripple adder with every sum bit (and cout) registered through a flip-flop
/// (outputs rs0.., rcout, delayed one clock slot) — the multi-latch fabric
/// whose trajectory the phase-engine goldens pin.
LogicNetlist registeredRippleAdder(std::size_t n);

/// N-bit carry-select adder: `block`-bit ripple blocks computed for both
/// carry-in values, the real carry selecting between them through AND/OR
/// muxes.  Same ports as rippleAdder.
LogicNetlist carrySelectAdder(std::size_t n, std::size_t block = 4);

/// N-bit synchronous up-counter (no inputs): outputs q0..q{n-1}, counting
/// from 0, one increment per clock slot.
LogicNetlist upCounter(std::size_t n);

/// N-bit Fibonacci LFSR with XNOR feedback (taps q{n-1}, q{n-2}), shifting
/// q0 -> q1 -> ...; the XNOR form makes the all-zero power-on state
/// sequence properly.  Outputs q0..q{n-1}.
LogicNetlist lfsr(std::size_t n);

/// 4x4 array multiplier: inputs a0..a3, b0..b3; outputs p0..p7.  Built from
/// AND partial products reduced by half/full adder cells (XOR/MAJ).
LogicNetlist multiplier4x4();

/// N-stage shift register: input d, output q{n-1}.  2N oscillator latches
/// after lowering — the knob the scaling bench turns up to a 1000-latch
/// fabric.
LogicNetlist shiftRegister(std::size_t n);

/// LSB-first bit decomposition helpers for driving/decoding the adders.
std::vector<int> toBits(std::uint64_t value, std::size_t n);
std::uint64_t fromBits(const std::vector<int>& bits);

}  // namespace phlogon::logic
