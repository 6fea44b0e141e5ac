#include "io/checkpoint.hpp"

#include "io/artifact.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::io {

// ---- circuit transient ----------------------------------------------------

std::vector<std::uint8_t> encodeTransientCheckpoint(const TransientCheckpoint& c) {
    BinaryWriter w;
    w.f64(c.t0);
    w.f64(c.t1);
    w.f64(c.t);
    w.u64(c.stepIndex);
    w.vec(c.x);
    encodeCounters(w, c.counters);
    return w.take();
}

std::optional<TransientCheckpoint> decodeTransientCheckpoint(
    const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    TransientCheckpoint c;
    if (!r.f64(c.t0) || !r.f64(c.t1) || !r.f64(c.t) || !r.u64(c.stepIndex) ||
        !r.vec(c.x) || !decodeCounters(r, c.counters))
        return std::nullopt;
    return c;
}

bool saveTransientCheckpoint(const std::filesystem::path& path, const TransientCheckpoint& c) {
    OBS_SPAN("checkpoint.save");
    const bool ok =
        writeArtifactFile(path, kTypeTransientCheckpoint, encodeTransientCheckpoint(c));
    if (ok) PHLOGON_COUNT_METRIC("checkpoint.writes");
    return ok;
}

std::optional<TransientCheckpoint> loadTransientCheckpoint(const std::filesystem::path& path) {
    OBS_SPAN("checkpoint.load");
    const ArtifactReadResult r = readArtifactFile(path, kTypeTransientCheckpoint);
    if (!r.ok()) return std::nullopt;
    PHLOGON_COUNT_METRIC("checkpoint.loads");
    return decodeTransientCheckpoint(r.payload);
}

an::TransientResult resumeTransient(const ckt::Dae& dae, const std::filesystem::path& path,
                                    double t1, const an::TransientOptions& opt) {
    const std::optional<TransientCheckpoint> c = loadTransientCheckpoint(path);
    if (!c) {
        an::TransientResult res;
        res.message = "resumeTransient: no valid checkpoint at " + path.string();
        return res;
    }
    if (c->x.size() != dae.size()) {
        an::TransientResult res;
        res.message = "resumeTransient: checkpoint state size " + std::to_string(c->x.size()) +
                      " does not match DAE size " + std::to_string(dae.size());
        return res;
    }
    an::TransientResumeState st;
    st.t0 = c->t0;
    st.t = c->t;
    st.x = c->x;
    st.stepIndex = c->stepIndex;
    st.counters = c->counters;
    return an::transientResumed(dae, st, t1, opt);
}

// ---- GAE transient --------------------------------------------------------

std::vector<std::uint8_t> encodeGaeCheckpoint(const GaeCheckpoint& c) {
    BinaryWriter w;
    w.f64(c.t);
    w.f64(c.dphi);
    w.f64(c.h);
    encodeCounters(w, c.counters);
    return w.take();
}

std::optional<GaeCheckpoint> decodeGaeCheckpoint(const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    GaeCheckpoint c;
    if (!r.f64(c.t) || !r.f64(c.dphi) || !r.f64(c.h) || !decodeCounters(r, c.counters))
        return std::nullopt;
    return c;
}

bool saveGaeCheckpoint(const std::filesystem::path& path, const GaeCheckpoint& c) {
    OBS_SPAN("checkpoint.save");
    const bool ok = writeArtifactFile(path, kTypeGaeCheckpoint, encodeGaeCheckpoint(c));
    if (ok) PHLOGON_COUNT_METRIC("checkpoint.writes");
    return ok;
}

std::optional<GaeCheckpoint> loadGaeCheckpoint(const std::filesystem::path& path) {
    OBS_SPAN("checkpoint.load");
    const ArtifactReadResult r = readArtifactFile(path, kTypeGaeCheckpoint);
    if (!r.ok()) return std::nullopt;
    PHLOGON_COUNT_METRIC("checkpoint.loads");
    return decodeGaeCheckpoint(r.payload);
}

core::GaeTransientResult resumeGaeTransient(const core::PpvModel& model, double f1,
                                            const std::vector<core::GaeSegment>& schedule,
                                            const std::filesystem::path& path, double t1,
                                            const num::OdeOptions& opt, std::size_t gridSize,
                                            const core::GaeCheckpointOptions& ckpt) {
    const std::optional<GaeCheckpoint> c = loadGaeCheckpoint(path);
    if (!c) return {};  // ok stays false
    core::GaeTransientResult res = core::gaeTransientFrom(model, f1, schedule, c->dphi, c->t, t1,
                                                          opt, gridSize, ckpt, c->h);
    // Fold in the pre-checkpoint work so totals equal the full run's.
    // operator+= sums every field, so nothing (e.g. Newton/LU counts from a
    // future implicit GAE stepper) can silently fall out of the aggregation.
    res.counters += c->counters;
    return res;
}

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

}  // namespace phlogon::io
