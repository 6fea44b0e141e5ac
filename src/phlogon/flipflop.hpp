#pragma once
// Master-slave D flip-flop from two phase-logic D latches (paper Figs. 15/19).
//
// The master latch is transparent while CLK encodes 0 and freezes on the
// rising edge; the slave is clocked with ~CLK, so Q1 (master) picks up D
// around falling CLK edges and Q2 (slave) follows Q1 around rising edges —
// the behaviour the paper's oscilloscope shots (Fig. 19) demonstrate.

#include "phlogon/latch.hpp"

namespace phlogon::logic {

struct PhaseDff {
    PhaseDLatch master;
    PhaseDLatch slave;
    core::PhaseSystem::SignalId q1 = -1;  ///< master output
    core::PhaseSystem::SignalId q2 = -1;  ///< slave output
};

/// Add a master-slave DFF to `sys`: two addPhaseDLatch latches on `bus`.
/// `d`, `clk`, `clkBar` are phase-encoded signals.  The master samples while
/// `clk` encodes 1; the slave while `clkBar` encodes 1.
PhaseDff addPhaseDff(core::PhaseSystem& sys, const SyncLatchDesign& design,
                     const PhaseLatchBus& bus, core::PhaseSystem::SignalId d,
                     core::PhaseSystem::SignalId clk, core::PhaseSystem::SignalId clkBar,
                     const PhaseDLatchOptions& opt = {}, const std::string& label = "dff");

}  // namespace phlogon::logic
