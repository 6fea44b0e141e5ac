#include "phlogon/flipflop.hpp"

namespace phlogon::logic {

PhaseDff addPhaseDff(core::PhaseSystem& sys, const SyncLatchDesign& design,
                     const PhaseLatchBus& bus, core::PhaseSystem::SignalId d,
                     core::PhaseSystem::SignalId clk, core::PhaseSystem::SignalId clkBar,
                     const PhaseDLatchOptions& opt, const std::string& label) {
    PhaseDff ff;
    ff.master = addPhaseDLatch(sys, design, bus, d, clk, clkBar, opt, label + ".master");
    ff.q1 = ff.master.out;
    // The slave samples the master's output on the opposite clock phase.
    ff.slave = addPhaseDLatch(sys, design, bus, ff.q1, clkBar, clk, opt, label + ".slave");
    ff.q2 = ff.slave.out;
    return ff;
}

}  // namespace phlogon::logic
