#include "io/model_cache.hpp"

#include "io/hash.hpp"
#include "obs/trace.hpp"

namespace phlogon::io {

std::string cacheOutcomeName(CacheOutcome o) {
    switch (o) {
        case CacheOutcome::Disabled: return "disabled";
        case CacheOutcome::NotCacheable: return "not-cacheable";
        case CacheOutcome::Miss: return "miss";
        case CacheOutcome::Hit: return "hit";
    }
    return "?";
}

std::optional<std::uint64_t> characterizationKey(const ckt::Netlist& nl,
                                                 const an::PssOptions& pssOpt,
                                                 const an::PpvOptions& ppvOpt) {
    const std::string canon = nl.canonicalForm();
    if (canon.empty()) return std::nullopt;
    Fnv1a64 h;
    h.str("phlogon-characterization");
    h.u64(kFormatVersion);
    h.str(canon);
    hashPssOptions(h, pssOpt);
    hashPpvOptions(h, ppvOpt);
    return h.digest();
}

CachedCharacterization characterizeCached(const ckt::Dae& dae, const ckt::Netlist& nl,
                                          const an::PssOptions& pssOpt,
                                          const an::PpvOptions& ppvOpt,
                                          const ArtifactCache& cache) {
    OBS_SPAN("cache.characterize");
    CachedCharacterization out;
    const std::optional<std::uint64_t> key = characterizationKey(nl, pssOpt, ppvOpt);
    if (key) out.key = *key;
    if (!key) {
        out.outcome = CacheOutcome::NotCacheable;
    } else if (!cache.enabled()) {
        out.outcome = CacheOutcome::Disabled;
    } else if (auto payload = cache.fetch(*key, kTypeCharacterization)) {
        if (auto c = decodeCharacterization(*payload)) {
            out.outcome = CacheOutcome::Hit;
            out.value = std::move(*c);
            // Counters report work done this run; a hit did none.
            out.value.pss.counters = {};
            return out;
        }
        out.outcome = CacheOutcome::Miss;  // undecodable payload: recompute
    } else {
        out.outcome = CacheOutcome::Miss;
    }

    out.value.pss = an::shootingPss(dae, pssOpt);
    if (out.value.pss.ok) out.value.ppv = an::extractPpvTimeDomain(dae, out.value.pss, ppvOpt);
    if (out.outcome == CacheOutcome::Miss && out.value.pss.ok && out.value.ppv.ok)
        cache.store(*key, kTypeCharacterization, encodeCharacterization(out.value));
    return out;
}

namespace {

/// Shared key recipe for sweep tables over a PpvModel.
std::optional<std::uint64_t> sweepKey(const char* kind, const core::PpvModel& model,
                                      const std::vector<const core::Injection*>& injections,
                                      const num::Vec& grid, std::size_t gridSize) {
    Fnv1a64 h;
    h.str(kind);
    h.u64(kFormatVersion);
    h.u64(hashPpvModel(model));
    for (const core::Injection* inj : injections) {
        if (inj->canonicalDesc.empty()) return std::nullopt;
        h.str(inj->canonicalDesc);
    }
    h.vec(grid);
    h.u64(gridSize);
    return h.digest();
}

template <class T>
using SweepDecoder = std::optional<std::vector<T>> (*)(const std::vector<std::uint8_t>&);

/// Fetch-or-compute scaffold shared by the sweep wrappers.
template <class T, class ComputeFn, class EncodeFn>
std::vector<T> cachedSweep(const std::optional<std::uint64_t>& key, std::uint32_t type,
                           const ArtifactCache& cache, CachedSweepInfo* info, ComputeFn compute,
                           EncodeFn encode, SweepDecoder<T> decode) {
    CachedSweepInfo local;
    if (!info) info = &local;
    if (key) info->key = *key;
    if (!key) {
        info->outcome = CacheOutcome::NotCacheable;
    } else if (!cache.enabled()) {
        info->outcome = CacheOutcome::Disabled;
    } else if (auto payload = cache.fetch(*key, type)) {
        if (auto table = decode(*payload)) {
            info->outcome = CacheOutcome::Hit;
            return std::move(*table);
        }
        info->outcome = CacheOutcome::Miss;
    } else {
        info->outcome = CacheOutcome::Miss;
    }
    std::vector<T> table = compute();
    if (info->outcome == CacheOutcome::Miss) cache.store(*key, type, encode(table));
    return table;
}

}  // namespace

std::vector<core::LockingRangePoint> cachedLockingRangeVsAmplitude(
    const core::PpvModel& model, const core::Injection& unitInjection, const num::Vec& amplitudes,
    std::size_t gridSize, const ArtifactCache& cache, CachedSweepInfo* info) {
    const auto key =
        sweepKey("phlogon-sweep-locking-range", model, {&unitInjection}, amplitudes, gridSize);
    return cachedSweep<core::LockingRangePoint>(
        key, kTypeSweepLockingRange, cache, info,
        [&] { return core::lockingRangeVsAmplitude(model, unitInjection, amplitudes, gridSize); },
        encodeLockingRangeTable, decodeLockingRangeTable);
}

std::vector<core::PhaseErrorPoint> cachedLockPhaseErrorSweep(
    const core::PpvModel& model, const std::vector<core::Injection>& injections,
    const num::Vec& f1Grid, std::size_t gridSize, const ArtifactCache& cache,
    CachedSweepInfo* info) {
    std::vector<const core::Injection*> ptrs;
    for (const core::Injection& inj : injections) ptrs.push_back(&inj);
    const auto key = sweepKey("phlogon-sweep-phase-error", model, ptrs, f1Grid, gridSize);
    return cachedSweep<core::PhaseErrorPoint>(
        key, kTypeSweepPhaseError, cache, info,
        [&] { return core::lockPhaseErrorSweep(model, injections, f1Grid, gridSize); },
        encodePhaseErrorTable, decodePhaseErrorTable);
}

}  // namespace phlogon::io
