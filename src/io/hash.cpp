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

}  // namespace phlogon::io
