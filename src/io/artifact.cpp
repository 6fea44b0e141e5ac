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

namespace {

std::optional<an::PssResult> readPssResult(BinaryReader& r) {
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

}  // namespace

std::optional<an::PssResult> decodePssResult(const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    return readPssResult(r);
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

namespace {

std::optional<an::PpvResult> readPpvResult(BinaryReader& r) {
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

}  // namespace

std::optional<an::PpvResult> decodePpvResult(const std::vector<std::uint8_t>& payload) {
    BinaryReader r(payload);
    return readPpvResult(r);
}

// ---- characterization bundle ----------------------------------------------

std::vector<std::uint8_t> encodeCharacterization(const Characterization& c) {
    BinaryWriter w;
    w.blob(encodePssResult(c.pss));
    w.blob(encodePpvResult(c.ppv));
    return w.take();
}

std::optional<Characterization> decodeCharacterization(const std::vector<std::uint8_t>& payload) {
    // Both sub-payloads are read in place, each through a reader over its
    // own bytes of `payload`.
    BinaryReader r(payload);
    BinaryReader pssBytes, ppvBytes;
    if (!r.blob(pssBytes) || !r.blob(ppvBytes)) return std::nullopt;
    auto pss = readPssResult(pssBytes);
    auto ppv = readPpvResult(ppvBytes);
    if (!pss || !ppv) return std::nullopt;
    Characterization c;
    c.pss = std::move(*pss);
    c.ppv = std::move(*ppv);
    return c;
}

}  // namespace phlogon::io
