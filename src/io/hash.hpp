#pragma once
// Content hashing for cache keys.
//
// Cache keys are 64-bit FNV-1a hashes of a *canonical byte stream*: every
// ingredient that can change an extraction result is folded in — the
// netlist's canonical form, every analysis option (doubles as their exact
// IEEE-754 bit patterns, never as formatted text), and the library's
// artifact format version, so a format bump silently invalidates the whole
// cache.  The recipe is documented in DESIGN.md §11.  The daemon's job
// keys and outcome hashes (service/jobs.cpp) use the same streaming hasher.

#include <cstdint>
#include <string>

#include "analysis/pss.hpp"

namespace phlogon::io {

/// Streaming 64-bit FNV-1a.
class Fnv1a64 {
public:
    Fnv1a64& bytes(const void* data, std::size_t n);
    Fnv1a64& u8(std::uint8_t v) { return bytes(&v, 1); }
    Fnv1a64& u64(std::uint64_t v);
    Fnv1a64& f64(double v);  ///< exact bit pattern
    Fnv1a64& str(const std::string& s);
    std::uint64_t digest() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Lowercase 16-digit hex form used as the cache file stem.
std::string hashHex(std::uint64_t h);

/// Fold analysis options into a hasher (every field, bit-exact).
void hashPssOptions(Fnv1a64& h, const an::PssOptions& opt);
void hashNewtonOptions(Fnv1a64& h, const num::NewtonOptions& opt);

}  // namespace phlogon::io
