#include "io/checkpoint.hpp"

#include "io/artifact.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::io {

// ---- Monte-Carlo hold-error -----------------------------------------------

std::vector<std::uint8_t> encodeMcCheckpoint(const McCheckpoint& c) {
    BinaryWriter w;
    w.u64(c.jobKey);
    w.u64(c.trialsTotal);
    w.u64(c.trialsDone);
    w.u64(c.trials);
    w.u64(c.errors);
    w.u64(c.outcomeHash);
    return w.take();
}

std::optional<McCheckpoint> decodeMcCheckpoint(const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    McCheckpoint c;
    if (!r.u64(c.jobKey) || !r.u64(c.trialsTotal) || !r.u64(c.trialsDone) || !r.u64(c.trials) ||
        !r.u64(c.errors) || !r.u64(c.outcomeHash))
        return std::nullopt;
    return c;
}

bool saveMcCheckpoint(const std::filesystem::path& path, const McCheckpoint& c) {
    OBS_SPAN("checkpoint.save");
    const bool ok = writeArtifactFile(path, kTypeMcCheckpoint, encodeMcCheckpoint(c));
    if (ok) PHLOGON_COUNT_METRIC("checkpoint.writes");
    return ok;
}

std::optional<McCheckpoint> loadMcCheckpoint(const std::filesystem::path& path) {
    OBS_SPAN("checkpoint.load");
    const ArtifactReadResult r = readArtifactFile(path, kTypeMcCheckpoint);
    if (!r.ok()) return std::nullopt;
    PHLOGON_COUNT_METRIC("checkpoint.loads");
    return decodeMcCheckpoint(r.payload);
}

// ---- FSM write sequence ---------------------------------------------------

bool saveFsmCheckpoint(const std::filesystem::path& path, const FsmCheckpoint& c) {
    OBS_SPAN("checkpoint.save");
    BinaryWriter w;
    w.u64(c.jobKey);
    w.u64(c.slotsTotal);
    w.f64(c.dphi);
    w.vec(c.endPhase);
    encodeCounters(w, c.counters);
    const bool ok = writeArtifactFile(path, kTypeFsmCheckpoint, w.take());
    if (ok) PHLOGON_COUNT_METRIC("checkpoint.writes");
    return ok;
}

std::optional<FsmCheckpoint> loadFsmCheckpoint(const std::filesystem::path& path) {
    OBS_SPAN("checkpoint.load");
    const ArtifactReadResult r = readArtifactFile(path, kTypeFsmCheckpoint);
    if (!r.ok()) return std::nullopt;
    PHLOGON_COUNT_METRIC("checkpoint.loads");
    BinaryReader br(r.payload);
    FsmCheckpoint c;
    if (!br.u64(c.jobKey) || !br.u64(c.slotsTotal) || !br.f64(c.dphi) || !br.vec(c.endPhase) ||
        !decodeCounters(br, c.counters))
        return std::nullopt;
    return c;
}

}  // namespace phlogon::io
