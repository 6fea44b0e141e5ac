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

std::vector<core::LockingRangePoint> cachedLockingRangeVsAmplitude(
    const core::PpvModel& model, const core::Injection& unitInjection, const num::Vec& amplitudes,
    std::size_t gridSize, const ArtifactCache& cache, CachedSweepInfo* info) {
    CachedSweepInfo local;
    if (!info) info = &local;
    std::optional<std::uint64_t> key;
    if (!unitInjection.canonicalDesc.empty()) {
        Fnv1a64 h;
        h.str("phlogon-sweep-locking-range");
        h.u64(kFormatVersion);
        h.u64(hashPpvModel(model));
        h.str(unitInjection.canonicalDesc);
        h.vec(amplitudes);
        h.u64(gridSize);
        key = h.digest();
        info->key = *key;
    }
    if (!key) {
        info->outcome = CacheOutcome::NotCacheable;
    } else if (!cache.enabled()) {
        info->outcome = CacheOutcome::Disabled;
    } else if (auto payload = cache.fetch(*key, kTypeSweepLockingRange)) {
        if (auto table = decodeLockingRangeTable(*payload)) {
            info->outcome = CacheOutcome::Hit;
            return std::move(*table);
        }
        info->outcome = CacheOutcome::Miss;  // undecodable payload: recompute
    } else {
        info->outcome = CacheOutcome::Miss;
    }
    std::vector<core::LockingRangePoint> table =
        core::lockingRangeVsAmplitude(model, unitInjection, amplitudes, gridSize);
    if (info->outcome == CacheOutcome::Miss)
        cache.store(*key, kTypeSweepLockingRange, encodeLockingRangeTable(table));
    return table;
}

}  // namespace phlogon::io
