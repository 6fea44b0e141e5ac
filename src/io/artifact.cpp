#include "io/artifact.hpp"

namespace phlogon::io {

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

// ---- GAE locking-range sweep table ----------------------------------------

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

}  // namespace phlogon::io
