#pragma once
// Cache-aware wrappers around the expensive extraction and sweep flows.
//
// Each wrapper derives a content key (io/hash.hpp) from everything that
// determines its result, consults an ArtifactCache and either substitutes the
// stored bytes or computes, stores and returns.  Three outcomes besides a hit
// are possible and all degrade to plain computation:
//   * Disabled     — the cache has no directory (PHLOGON_CACHE_DIR unset);
//   * NotCacheable — an input holds an opaque std::function (netlist device
//     or injection without a canonical description), so no sound key exists;
//   * Miss         — no valid entry yet (or a corrupt one was discarded).
//
// On a hit the embedded SolverCounters are zeroed: counters report work done
// *this run*, and a cache hit does none.  The raw decode stays bit-exact —
// round-trip tests go through io/artifact.hpp directly.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/ppv.hpp"
#include "analysis/pss.hpp"
#include "circuit/dae.hpp"
#include "circuit/netlist.hpp"
#include "core/gae_sweep.hpp"
#include "io/artifact.hpp"
#include "io/cache.hpp"

namespace phlogon::io {

enum class CacheOutcome { Disabled, NotCacheable, Miss, Hit };
std::string cacheOutcomeName(CacheOutcome o);

/// Content key for a full PSS+PPV characterization of `nl` under the given
/// options.  std::nullopt when the netlist has no canonical form.
std::optional<std::uint64_t> characterizationKey(const ckt::Netlist& nl,
                                                 const an::PssOptions& pssOpt,
                                                 const an::PpvOptions& ppvOpt);

struct CachedCharacterization {
    Characterization value;
    CacheOutcome outcome = CacheOutcome::Disabled;
    std::uint64_t key = 0;  ///< valid unless outcome == NotCacheable
};

/// Fetch-or-compute a PSS+PPV characterization.  Analysis failures surface
/// exactly as in the direct flow (pss.ok / ppv.ok are part of the result and
/// failed runs are never stored).
CachedCharacterization characterizeCached(const ckt::Dae& dae, const ckt::Netlist& nl,
                                          const an::PssOptions& pssOpt,
                                          const an::PpvOptions& ppvOpt,
                                          const ArtifactCache& cache = ArtifactCache::global());

/// Key + outcome reporting for the cached sweep wrapper.
struct CachedSweepInfo {
    CacheOutcome outcome = CacheOutcome::Disabled;
    std::uint64_t key = 0;
};

/// Cached core::lockingRangeVsAmplitude (Fig. 7 table).  Key folds the model
/// content hash, the unit injection's canonical form, the amplitude grid and
/// gridSize — everything the table depends on (sweeps are bitwise
/// thread-invariant, so PHLOGON_THREADS is not part of it).
std::vector<core::LockingRangePoint> cachedLockingRangeVsAmplitude(
    const core::PpvModel& model, const core::Injection& unitInjection, const num::Vec& amplitudes,
    std::size_t gridSize = 1024, const ArtifactCache& cache = ArtifactCache::global(),
    CachedSweepInfo* info = nullptr);

}  // namespace phlogon::io
