#pragma once
// Fast per-trial random streams for the Monte-Carlo engine.
//
// The determinism contract (DESIGN.md §9/§13) is that every stochastic trial
// seeds its own engine from a counter-based derivation of (base seed, trial
// index) — core::deriveTrialSeed — so results are bitwise independent of
// scheduling.  Every stochastic-GAE path (core/noise.hpp) draws from the
// engine here: a SplitMix64 stream plus a ziggurat normal sampler.  Per
// normal draw that is one 64-bit state update and (~98.5% of the time) a
// single table compare — ~6x cheaper than the Box-Muller/polar
// transcendentals inside std::normal_distribution.
//
// SplitMix64 (Steele, Lea & Flood 2014) passes BigCrush as a stream
// generator; the ziggurat construction is Marsaglia-Tsang 2000 with 256
// layers (the numpy/Julia configuration).

#include <cstdint>
#include <limits>

namespace phlogon::num {

/// SplitMix64 sequence generator.  Satisfies UniformRandomBitGenerator, so
/// it can also drive std distributions where needed.
class SplitMix64 {
public:
    using result_type = std::uint64_t;

    explicit SplitMix64(std::uint64_t seed = 0) : state_(seed) {}

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

    result_type operator()() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /// Uniform double in [0, 1) with 53 random bits.
    double nextUnit() { return static_cast<double>(operator()() >> 11) * 0x1.0p-53; }

private:
    std::uint64_t state_;
};

/// Standard-normal sampler via the 256-layer ziggurat.  Stateless apart from
/// the shared (immutable) tables, so one instance serves any number of
/// concurrent lanes, each drawing through its own SplitMix64 stream.
class ZigguratNormal {
public:
    static constexpr int kLayers = 256;

    /// The process-wide sampler (tables built once, thread-safe).
    static const ZigguratNormal& instance();

    double operator()(SplitMix64& rng) const;

    /// One ziggurat iteration from a pre-drawn 64-bit word `u`.  Returns
    /// true with the accepted draw in *out; false means the wedge test
    /// rejected and the caller must retry with a fresh word.  `rng` is only
    /// advanced by the tail/wedge auxiliary draws, exactly as operator()
    /// advances it — operator() is `while (!tryDraw(rng(), rng, &v)) {}` —
    /// so a vectorized caller that pre-draws u keeps lane streams identical
    /// to the scalar sampler.
    bool tryDraw(std::uint64_t u, SplitMix64& rng, double* out) const;

    /// Layer edges x_[0..kLayers] (x_[1] = tailEdge(), decreasing to 0);
    /// exposed for the gathers in the AVX2 batch fill.
    const double* layerEdges() const { return x_; }

    /// The rightmost layer edge r: draws beyond it come from the exact
    /// Marsaglia tail sampler.
    static double tailEdge();

private:
    ZigguratNormal();

    // x_[0] = v/f(r) (base pseudo-width), x_[1] = r, strictly decreasing,
    // x_[kLayers] = 0; f_[i] = exp(-x_[i]^2 / 2).
    double x_[kLayers + 1];
    double f_[kLayers + 1];
};

}  // namespace phlogon::num
