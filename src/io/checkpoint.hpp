#pragma once
// The daemon's job checkpoints (service/jobs.hpp): one artifact file per
// long-running job, rewritten atomically at each chunk or slot boundary
// (io/serialize.hpp), so a killed run leaves either the previous or the
// current snapshot, never a torn one.  A missing, mistyped or truncated
// file loads as absent, and the job starts from the beginning.
//
// Both formats resume at boundaries where the uninterrupted run starts
// afresh as well, so no solver state is saved: Monte-Carlo trial seeds are
// counter-based over absolute trial indices, and every FSM slot is a fresh
// gaeTransient call.  An integration is resumed the same way, by restarting
// it from a stored point (an::transient) or at a schedule-segment boundary
// (core::gaeTransient).

#include <cstdint>
#include <filesystem>
#include <optional>
#include <vector>

#include "numeric/counters.hpp"

namespace phlogon::io {

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

// ---- FSM write sequence ---------------------------------------------------

/// Snapshot of a slot-chunked FSM write sequence (the service's
/// fsm-transient job): the phase at the last completed slot boundary plus
/// every completed slot's end phase (needed to decode the full output after
/// a resume).  Slot boundaries are fresh RKF45 starts in an uninterrupted
/// run too, so the resumed tail is bit-identical.
struct FsmCheckpoint {
    std::uint64_t jobKey = 0;
    std::uint64_t slotsTotal = 0;
    double dphi = 0.0;             ///< phase at the last completed slot boundary
    std::vector<double> endPhase;  ///< per completed slot
    num::SolverCounters counters;
};

bool saveFsmCheckpoint(const std::filesystem::path& path, const FsmCheckpoint& c);
std::optional<FsmCheckpoint> loadFsmCheckpoint(const std::filesystem::path& path);

}  // namespace phlogon::io
