#include "io/artifact.hpp"

namespace phlogon::io {

namespace {

/// File-backed load helper: read + validate, then decode.
template <class T>
std::optional<T> loadFile(const std::filesystem::path& path, std::uint32_t type,
                          std::optional<T> (*decode)(const std::vector<std::uint8_t>&)) {
    const ArtifactReadResult r = readArtifactFile(path, type);
    if (!r.ok()) return std::nullopt;
    return decode(r.payload);
}

}  // namespace

// ---- SolverCounters -------------------------------------------------------

void encodeCounters(BinaryWriter& w, const num::SolverCounters& c) {
    w.u64(c.rhsEvals);
    w.u64(c.jacEvals);
    w.u64(c.luFactorizations);
    w.u64(c.newtonIters);
    w.u64(c.dampingEvents);
    w.u64(c.steps);
    w.u64(c.rejectedSteps);
    w.f64(c.wallSeconds);
}

bool decodeCounters(BinaryReader& r, num::SolverCounters& c) {
    std::uint64_t v;
    if (!r.u64(v)) return false;
    c.rhsEvals = static_cast<std::size_t>(v);
    if (!r.u64(v)) return false;
    c.jacEvals = static_cast<std::size_t>(v);
    if (!r.u64(v)) return false;
    c.luFactorizations = static_cast<std::size_t>(v);
    if (!r.u64(v)) return false;
    c.newtonIters = static_cast<std::size_t>(v);
    if (!r.u64(v)) return false;
    c.dampingEvents = static_cast<std::size_t>(v);
    if (!r.u64(v)) return false;
    c.steps = static_cast<std::size_t>(v);
    if (!r.u64(v)) return false;
    c.rejectedSteps = static_cast<std::size_t>(v);
    return r.f64(c.wallSeconds);
}

// ---- PssResult ------------------------------------------------------------

std::vector<std::uint8_t> encodePssResult(const an::PssResult& pss) {
    BinaryWriter w;
    w.u8(pss.ok ? 1 : 0);
    w.str(pss.message);
    w.f64(pss.period);
    w.f64(pss.f0);
    w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(pss.phaseUnknown)));
    w.f64(pss.shootResidual);
    w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(pss.shootIterations)));
    w.vecList(pss.xs);
    w.vecList(pss.xFine);
    w.vec(pss.tFine);
    encodeCounters(w, pss.counters);
    return w.take();
}

std::optional<an::PssResult> decodePssResult(const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    an::PssResult pss;
    std::uint8_t b;
    std::uint64_t v;
    if (!r.u8(b)) return std::nullopt;
    pss.ok = b != 0;
    if (!r.str(pss.message) || !r.f64(pss.period) || !r.f64(pss.f0)) return std::nullopt;
    if (!r.u64(v)) return std::nullopt;
    pss.phaseUnknown = static_cast<int>(static_cast<std::int64_t>(v));
    if (!r.f64(pss.shootResidual)) return std::nullopt;
    if (!r.u64(v)) return std::nullopt;
    pss.shootIterations = static_cast<int>(static_cast<std::int64_t>(v));
    if (!r.vecList(pss.xs) || !r.vecList(pss.xFine) || !r.vec(pss.tFine)) return std::nullopt;
    if (!decodeCounters(r, pss.counters)) return std::nullopt;
    return pss;
}

bool savePssResult(const std::filesystem::path& path, const an::PssResult& pss) {
    return writeArtifactFile(path, kTypePssResult, encodePssResult(pss));
}

std::optional<an::PssResult> loadPssResult(const std::filesystem::path& path) {
    return loadFile<an::PssResult>(path, kTypePssResult, decodePssResult);
}

// ---- PpvResult ------------------------------------------------------------

std::vector<std::uint8_t> encodePpvResult(const an::PpvResult& ppv) {
    BinaryWriter w;
    w.u8(ppv.ok ? 1 : 0);
    w.str(ppv.message);
    w.f64(ppv.period);
    w.f64(ppv.f0);
    w.vecList(ppv.v);
    w.f64(ppv.floquetMu);
    w.f64(ppv.normalizationSpread);
    w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(ppv.sweepsUsed)));
    return w.take();
}

std::optional<an::PpvResult> decodePpvResult(const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    an::PpvResult ppv;
    std::uint8_t b;
    std::uint64_t v;
    if (!r.u8(b)) return std::nullopt;
    ppv.ok = b != 0;
    if (!r.str(ppv.message) || !r.f64(ppv.period) || !r.f64(ppv.f0)) return std::nullopt;
    if (!r.vecList(ppv.v) || !r.f64(ppv.floquetMu) || !r.f64(ppv.normalizationSpread))
        return std::nullopt;
    if (!r.u64(v)) return std::nullopt;
    ppv.sweepsUsed = static_cast<int>(static_cast<std::int64_t>(v));
    return ppv;
}

bool savePpvResult(const std::filesystem::path& path, const an::PpvResult& ppv) {
    return writeArtifactFile(path, kTypePpvResult, encodePpvResult(ppv));
}

std::optional<an::PpvResult> loadPpvResult(const std::filesystem::path& path) {
    return loadFile<an::PpvResult>(path, kTypePpvResult, decodePpvResult);
}

// ---- PpvModel -------------------------------------------------------------

std::vector<std::uint8_t> encodePpvModel(const core::PpvModel& model) {
    BinaryWriter w;
    const std::size_t n = model.size();
    w.u64(n);
    w.u64(model.outputUnknown());
    w.f64(model.f0());
    w.f64(model.dphiPeak());
    w.f64(model.waveformPeak());
    w.f64(model.outputMean());
    w.f64(model.outputAmplitude());
    w.f64(model.normalizationSpread());
    w.strList(model.unknownNames());
    for (std::size_t i = 0; i < n; ++i) w.vec(model.xsSamples(i));
    for (std::size_t i = 0; i < n; ++i) w.vec(model.ppvSamples(i));
    return w.take();
}

std::optional<core::PpvModel> decodePpvModel(const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    std::uint64_t n, outIdx;
    double f0, dphiPeak, wavePeak, outMean, outAmp, normSpread;
    std::vector<std::string> names;
    if (!r.u64(n) || !r.u64(outIdx) || !r.f64(f0) || !r.f64(dphiPeak) || !r.f64(wavePeak) ||
        !r.f64(outMean) || !r.f64(outAmp) || !r.f64(normSpread) || !r.strList(names))
        return std::nullopt;
    std::vector<num::Vec> xs(static_cast<std::size_t>(n)), ppv(static_cast<std::size_t>(n));
    for (num::Vec& v : xs)
        if (!r.vec(v)) return std::nullopt;
    for (num::Vec& v : ppv)
        if (!r.vec(v)) return std::nullopt;
    if (n == 0 || outIdx >= n) return std::nullopt;
    return core::PpvModel::restore(static_cast<std::size_t>(outIdx), f0, dphiPeak, wavePeak,
                                   outMean, outAmp, normSpread, std::move(names), std::move(xs),
                                   std::move(ppv));
}

bool savePpvModel(const std::filesystem::path& path, const core::PpvModel& model) {
    return writeArtifactFile(path, kTypePpvModel, encodePpvModel(model));
}

std::optional<core::PpvModel> loadPpvModel(const std::filesystem::path& path) {
    return loadFile<core::PpvModel>(path, kTypePpvModel, decodePpvModel);
}

// ---- characterization bundle ----------------------------------------------

std::vector<std::uint8_t> encodeCharacterization(const Characterization& c) {
    BinaryWriter w;
    const std::vector<std::uint8_t> pss = encodePssResult(c.pss);
    const std::vector<std::uint8_t> ppv = encodePpvResult(c.ppv);
    w.u64(pss.size());
    for (std::uint8_t b : pss) w.u8(b);
    w.u64(ppv.size());
    for (std::uint8_t b : ppv) w.u8(b);
    return w.take();
}

std::optional<Characterization> decodeCharacterization(const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    std::uint64_t n;
    if (!r.u64(n) || r.remaining() < n) return std::nullopt;
    std::vector<std::uint8_t> pssBytes(static_cast<std::size_t>(n));
    for (std::uint8_t& b : pssBytes)
        if (!r.u8(b)) return std::nullopt;
    if (!r.u64(n) || r.remaining() < n) return std::nullopt;
    std::vector<std::uint8_t> ppvBytes(static_cast<std::size_t>(n));
    for (std::uint8_t& b : ppvBytes)
        if (!r.u8(b)) return std::nullopt;
    auto pss = decodePssResult(pssBytes);
    auto ppv = decodePpvResult(ppvBytes);
    if (!pss || !ppv) return std::nullopt;
    Characterization c;
    c.pss = std::move(*pss);
    c.ppv = std::move(*ppv);
    return c;
}

// ---- waveforms / ODE solutions -------------------------------------------

std::vector<std::uint8_t> encodeOdeSolution(const num::OdeSolution& sol) {
    BinaryWriter w;
    w.u8(sol.ok ? 1 : 0);
    w.u64(sol.rejectedSteps);
    w.vec(sol.t);
    w.vecList(sol.y);
    return w.take();
}

std::optional<num::OdeSolution> decodeOdeSolution(const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    num::OdeSolution sol;
    std::uint8_t b;
    std::uint64_t v;
    if (!r.u8(b) || !r.u64(v)) return std::nullopt;
    sol.ok = b != 0;
    sol.rejectedSteps = static_cast<std::size_t>(v);
    if (!r.vec(sol.t) || !r.vecList(sol.y)) return std::nullopt;
    return sol;
}

bool saveOdeSolution(const std::filesystem::path& path, const num::OdeSolution& sol) {
    return writeArtifactFile(path, kTypeWaveform, encodeOdeSolution(sol));
}

std::optional<num::OdeSolution> loadOdeSolution(const std::filesystem::path& path) {
    return loadFile<num::OdeSolution>(path, kTypeWaveform, decodeOdeSolution);
}

std::vector<std::uint8_t> encodeTransientResult(const an::TransientResult& res) {
    BinaryWriter w;
    w.u8(res.ok ? 1 : 0);
    w.str(res.message);
    w.vec(res.t);
    w.vecList(res.x);
    encodeCounters(w, res.counters);
    return w.take();
}

std::optional<an::TransientResult> decodeTransientResult(
    const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    an::TransientResult res;
    std::uint8_t b;
    if (!r.u8(b)) return std::nullopt;
    res.ok = b != 0;
    if (!r.str(res.message) || !r.vec(res.t) || !r.vecList(res.x)) return std::nullopt;
    if (!decodeCounters(r, res.counters)) return std::nullopt;
    return res;
}

bool saveTransientResult(const std::filesystem::path& path, const an::TransientResult& res) {
    return writeArtifactFile(path, kTypeWaveform, encodeTransientResult(res));
}

std::optional<an::TransientResult> loadTransientResult(const std::filesystem::path& path) {
    return loadFile<an::TransientResult>(path, kTypeWaveform, decodeTransientResult);
}

// ---- GAE sweep tables -----------------------------------------------------

std::vector<std::uint8_t> encodeLockingRangeTable(
    const std::vector<core::LockingRangePoint>& pts) {
    BinaryWriter w;
    w.u64(pts.size());
    for (const core::LockingRangePoint& p : pts) {
        w.f64(p.amplitude);
        w.u8(p.range.locks ? 1 : 0);
        w.f64(p.range.fLow);
        w.f64(p.range.fHigh);
    }
    return w.take();
}

std::optional<std::vector<core::LockingRangePoint>> decodeLockingRangeTable(
    const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    std::uint64_t n;
    if (!r.u64(n) || r.remaining() < n) return std::nullopt;
    std::vector<core::LockingRangePoint> pts(static_cast<std::size_t>(n));
    for (core::LockingRangePoint& p : pts) {
        std::uint8_t b;
        if (!r.f64(p.amplitude) || !r.u8(b) || !r.f64(p.range.fLow) || !r.f64(p.range.fHigh))
            return std::nullopt;
        p.range.locks = b != 0;
    }
    return pts;
}

bool saveLockingRangeTable(const std::filesystem::path& path,
                           const std::vector<core::LockingRangePoint>& pts) {
    return writeArtifactFile(path, kTypeSweepLockingRange, encodeLockingRangeTable(pts));
}

std::optional<std::vector<core::LockingRangePoint>> loadLockingRangeTable(
    const std::filesystem::path& path) {
    return loadFile<std::vector<core::LockingRangePoint>>(path, kTypeSweepLockingRange,
                                                          decodeLockingRangeTable);
}

std::vector<std::uint8_t> encodePhaseErrorTable(const std::vector<core::PhaseErrorPoint>& pts) {
    BinaryWriter w;
    w.u64(pts.size());
    for (const core::PhaseErrorPoint& p : pts) {
        w.f64(p.f1);
        w.f64(p.detune);
        w.vec(p.phases);
        w.vec(p.references);
        w.vec(p.errors);
    }
    return w.take();
}

std::optional<std::vector<core::PhaseErrorPoint>> decodePhaseErrorTable(
    const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    std::uint64_t n;
    if (!r.u64(n) || r.remaining() < n) return std::nullopt;
    std::vector<core::PhaseErrorPoint> pts(static_cast<std::size_t>(n));
    for (core::PhaseErrorPoint& p : pts) {
        if (!r.f64(p.f1) || !r.f64(p.detune) || !r.vec(p.phases) || !r.vec(p.references) ||
            !r.vec(p.errors))
            return std::nullopt;
    }
    return pts;
}

bool savePhaseErrorTable(const std::filesystem::path& path,
                         const std::vector<core::PhaseErrorPoint>& pts) {
    return writeArtifactFile(path, kTypeSweepPhaseError, encodePhaseErrorTable(pts));
}

std::optional<std::vector<core::PhaseErrorPoint>> loadPhaseErrorTable(
    const std::filesystem::path& path) {
    return loadFile<std::vector<core::PhaseErrorPoint>>(path, kTypeSweepPhaseError,
                                                        decodePhaseErrorTable);
}

}  // namespace phlogon::io
