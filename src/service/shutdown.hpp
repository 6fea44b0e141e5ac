#pragma once
// Process-wide SIGINT/SIGTERM latch (self-pipe idiom).
//
// The handler does the only two async-signal-safe things needed: it sets
// the requested flag and writes one byte to a pipe.  Everything with
// consequences — draining the job queue, checkpointing in-flight work,
// finishing a half-written bench report — happens on a normal thread that
// observes requested() or returns from wait().
//
// Used by phlogond (graceful drain-checkpoint-exit-0 on SIGTERM) and by the
// long-running benches via bench/common.cpp (no truncated bench_out/ files
// when a run is interrupted).  install() is idempotent and keeps at most
// one handler per process; request() triggers the same path
// programmatically (tests, "shutdown" requests).

namespace phlogon::svc {

class ShutdownSignal {
public:
    static ShutdownSignal& instance();

    /// Install the SIGINT/SIGTERM handler (first call only; later calls and
    /// failures are no-ops — the daemon then just isn't signal-drainable).
    void install();

    bool requested() const;

    /// Block until a shutdown is requested, or `timeoutMs` elapses
    /// (negative = forever).  True when shutdown was requested.
    bool wait(int timeoutMs = -1) const;

    /// Programmatic trigger — same wakeup as a signal.
    void request();

private:
    ShutdownSignal();
};

}  // namespace phlogon::svc
