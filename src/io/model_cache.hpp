#pragma once
// Cache-aware PSS+PPV characterization, the one expensive flow worth
// caching (DESIGN.md §11 gives the measured costs).
//
// characterizeCached derives a content key (io/hash.hpp) from everything
// that determines its result, consults an ArtifactCache and either
// substitutes the stored bytes or computes, stores and returns.  Three
// outcomes besides a hit are possible and all degrade to plain computation:
//   * Disabled     — the cache has no directory (PHLOGON_CACHE_DIR unset);
//   * NotCacheable — a netlist device holds an opaque std::function (no
//     canonical description), so no sound key exists;
//   * Miss         — no valid entry yet (or a corrupt one was discarded).
//
// On a hit the embedded SolverCounters are zeroed: counters report work done
// *this run*, and a cache hit does none.  The raw decode stays bit-exact —
// round-trip tests go through io/artifact.hpp directly.

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/ppv.hpp"
#include "analysis/pss.hpp"
#include "circuit/dae.hpp"
#include "circuit/netlist.hpp"
#include "io/artifact.hpp"
#include "io/cache.hpp"

namespace phlogon::io {

enum class CacheOutcome { Disabled, NotCacheable, Miss, Hit };
std::string cacheOutcomeName(CacheOutcome o);

/// Content key for a full PSS+PPV characterization of `nl` under the given
/// PSS options.  std::nullopt when the netlist has no canonical form.
std::optional<std::uint64_t> characterizationKey(const ckt::Netlist& nl,
                                                 const an::PssOptions& pssOpt);

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
                                          const ArtifactCache& cache = ArtifactCache::global());

}  // namespace phlogon::io
