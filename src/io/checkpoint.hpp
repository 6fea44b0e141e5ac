#pragma once
// Checkpoint/restore for the long-running integrations.
//
// A checkpoint is a complete restart point for a deterministic integrator:
// everything the solver loop reads besides its (re-derivable or
// caller-supplied) inputs.  Because both integrators are memoryless step to
// step — the implicit stepper re-derives qk/fk from (t, x), and the RKF45
// controller's only carried state is the next step proposal h — resuming
// from a checkpoint written after an accepted step reproduces the remaining
// trajectory bit-for-bit.  The round-trip tests assert exactly that against
// uninterrupted runs.
//
// Snapshots are single artifact files (io/serialize.hpp) rewritten
// atomically at each checkpoint interval, so a killed run always leaves
// either the previous or the current snapshot, never a torn one.

#include <filesystem>
#include <optional>
#include <vector>

#include "analysis/transient.hpp"
#include "core/gae_transient.hpp"
#include "numeric/counters.hpp"
#include "numeric/matrix.hpp"

namespace phlogon::io {

// ---- circuit transient ----------------------------------------------------

/// Snapshot of analysis/transient.cpp solver state after an accepted step.
struct TransientCheckpoint {
    double t0 = 0.0;  ///< original span start
    double t1 = 0.0;  ///< span end the run was headed for (informational)
    double t = 0.0;   ///< checkpoint time
    std::uint64_t stepIndex = 0;
    num::Vec x;
    num::SolverCounters counters;
};

std::vector<std::uint8_t> encodeTransientCheckpoint(const TransientCheckpoint& c);
std::optional<TransientCheckpoint> decodeTransientCheckpoint(
    const std::vector<std::uint8_t>& payload);
bool saveTransientCheckpoint(const std::filesystem::path& path, const TransientCheckpoint& c);
std::optional<TransientCheckpoint> loadTransientCheckpoint(const std::filesystem::path& path);

/// Resume a transient run from the snapshot at `path` and integrate to t1.
/// Unreadable/corrupt snapshots yield ok = false with a diagnostic message —
/// callers fall back to a fresh transient() from t0.  The result's first
/// point is the checkpoint point, so  head-points + tail[1:]  reassembles
/// the uninterrupted run exactly.
an::TransientResult resumeTransient(const ckt::Dae& dae, const std::filesystem::path& path,
                                    double t1, const an::TransientOptions& opt);

// ---- GAE transient --------------------------------------------------------

/// Snapshot of a gaeTransient integration after an accepted RK step.
struct GaeCheckpoint {
    double t = 0.0;
    double dphi = 0.0;
    double h = 0.0;  ///< RKF45 next-step proposal
    num::SolverCounters counters;  ///< work counters at snapshot time (exact)
};

std::vector<std::uint8_t> encodeGaeCheckpoint(const GaeCheckpoint& c);
std::optional<GaeCheckpoint> decodeGaeCheckpoint(const std::vector<std::uint8_t>& payload);
bool saveGaeCheckpoint(const std::filesystem::path& path, const GaeCheckpoint& c);
std::optional<GaeCheckpoint> loadGaeCheckpoint(const std::filesystem::path& path);

/// Resume a gaeTransient run from the snapshot at `path` through the same
/// schedule to t1.  The t/dphi tail is bit-identical to the uninterrupted
/// run's from the checkpoint time on, and the counters, which fold in the
/// snapshot's, equal its totals.  Unreadable snapshots yield ok = false.
core::GaeTransientResult resumeGaeTransient(const core::PpvModel& model, double f1,
                                            const std::vector<core::GaeSegment>& schedule,
                                            const std::filesystem::path& path, double t1,
                                            const num::OdeOptions& opt = {},
                                            std::size_t gridSize = 1024,
                                            const core::GaeCheckpointOptions& ckpt = {});

// ---- Monte-Carlo hold-error -----------------------------------------------

/// Snapshot of a chunked holdErrorProbability ensemble after a completed
/// trial chunk (the service's long-MC jobs, DESIGN.md §16).  Per-trial
/// seeds are counter-based (core::deriveTrialSeed over absolute trial
/// indices), so a run resumed at `trialsDone` reproduces trials
/// [trialsDone, trialsTotal) — and hence the final counts and the running
/// outcome hash — bit-for-bit.
struct McCheckpoint {
    std::uint64_t jobKey = 0;       ///< content key of the job parameters
    std::uint64_t trialsTotal = 0;  ///< requested ensemble size
    std::uint64_t trialsDone = 0;   ///< completed trials (chunk-aligned)
    std::uint64_t trials = 0;       ///< converged trials among trialsDone
    std::uint64_t errors = 0;       ///< bit losses among converged trials
    /// FNV-1a fold of each completed chunk's (firstTrial, trials, errors):
    /// equal hashes mean equal per-chunk outcomes in equal order.
    std::uint64_t outcomeHash = 0;
};

std::vector<std::uint8_t> encodeMcCheckpoint(const McCheckpoint& c);
std::optional<McCheckpoint> decodeMcCheckpoint(const std::vector<std::uint8_t>& payload);
bool saveMcCheckpoint(const std::filesystem::path& path, const McCheckpoint& c);
std::optional<McCheckpoint> loadMcCheckpoint(const std::filesystem::path& path);

}  // namespace phlogon::io
