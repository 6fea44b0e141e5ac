#include "io/hash.hpp"

#include <bit>
#include <cstdio>

namespace phlogon::io {

Fnv1a64& Fnv1a64::bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
    return *this;
}

Fnv1a64& Fnv1a64::u64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return bytes(b, 8);
}

Fnv1a64& Fnv1a64::f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

Fnv1a64& Fnv1a64::str(const std::string& s) {
    u64(s.size());
    return bytes(s.data(), s.size());
}

Fnv1a64& Fnv1a64::vec(const num::Vec& v) {
    u64(v.size());
    for (double x : v) f64(x);
    return *this;
}

std::string hashHex(std::uint64_t h) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

void hashNewtonOptions(Fnv1a64& h, const num::NewtonOptions& opt) {
    h.u64(static_cast<std::uint64_t>(opt.maxIter))
        .f64(opt.absTol)
        .u64(static_cast<std::uint64_t>(opt.maxDampings))
        .f64(opt.maxStep)
        .u64(static_cast<std::uint64_t>(opt.linearSolver));
}

void hashPssOptions(Fnv1a64& h, const an::PssOptions& opt) {
    h.str("PssOptions")
        .f64(opt.freqHint)
        .u64(opt.shootingSteps)
        .f64(opt.kick)
        .u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(opt.phaseUnknown)));
    hashNewtonOptions(h, opt.stepNewton);
}

std::uint64_t hashPpvModel(const core::PpvModel& model) {
    Fnv1a64 h;
    h.str("PpvModel")
        .u64(model.size())
        .u64(model.outputUnknown())
        .f64(model.f0())
        .f64(model.dphiPeak())
        .f64(model.waveformPeak())
        .f64(model.outputMean())
        .f64(model.outputAmplitude())
        .f64(model.normalizationSpread());
    for (const std::string& n : model.unknownNames()) h.str(n);
    for (std::size_t i = 0; i < model.size(); ++i) {
        h.vec(model.xsSamples(i));
        h.vec(model.ppvSamples(i));
    }
    return h.digest();
}

}  // namespace phlogon::io
