#include "io/cache.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "io/file_lock.hpp"
#include "io/hash.hpp"
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::io {

namespace fs = std::filesystem;

namespace {

/// Parse a cache-entry stem: exactly the 16 lowercase hex digits hashHex()
/// writes (uppercase tolerated for hand-copied names).  Returns false for
/// anything else — strtoull's 0-on-garbage would otherwise key foreign
/// files as 0 and feed them into the LRU eviction pool.
bool parseHexStem(const std::string& stem, std::uint64_t* key) {
    if (stem.size() != 16) return false;
    std::uint64_t k = 0;
    for (char c : stem) {
        unsigned d;
        if (c >= '0' && c <= '9') d = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f') d = static_cast<unsigned>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F') d = static_cast<unsigned>(c - 'A') + 10;
        else return false;
        k = (k << 4) | d;
    }
    *key = k;
    return true;
}

}  // namespace

ArtifactCache::ArtifactCache(fs::path dir, std::uintmax_t maxBytes)
    : dir_(std::move(dir)), maxBytes_(maxBytes) {}

ArtifactCache ArtifactCache::fromEnv() {
    const char* dir = std::getenv("PHLOGON_CACHE_DIR");
    if (!dir || !*dir) return ArtifactCache();
    std::uintmax_t maxBytes = kDefaultMaxBytes;
    if (const char* mb = std::getenv("PHLOGON_CACHE_MAX_MB"); mb && *mb) {
        char* end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(mb, &end, 10);
        constexpr unsigned long long kMaxMb =
            std::numeric_limits<std::uintmax_t>::max() / (1024ull * 1024ull);
        // strtoull silently negates "-5" into a huge value; treat any
        // leading '-' as unparseable instead.
        if (end && *end == '\0' && v > 0 && errno == 0 && *mb != '-') {
            // Clamp before multiplying: values near ULLONG_MAX would wrap
            // v * 1024 * 1024 around to a tiny byte budget.
            maxBytes = (v >= kMaxMb) ? std::numeric_limits<std::uintmax_t>::max()
                                     : v * 1024ull * 1024ull;
        } else {
            // Warn once, keep the default budget.  A malformed env var
            // silently shrinking (or unbounding) the cache is a debugging
            // trap; strtoull's 0-on-garbage makes it easy to hit.
            static const bool warned = [mb] {
                std::fprintf(stderr,
                             "phlogon: ignoring unparseable PHLOGON_CACHE_MAX_MB='%s' "
                             "(using default %llu MB)\n",
                             mb,
                             static_cast<unsigned long long>(kDefaultMaxBytes / (1024ull * 1024ull)));
                return true;
            }();
            (void)warned;
        }
    }
    return ArtifactCache(fs::path(dir), maxBytes);
}

const ArtifactCache& ArtifactCache::global() {
    static const ArtifactCache cache = fromEnv();
    return cache;
}

fs::path ArtifactCache::entryPath(std::uint64_t key) const {
    return dir_ / (hashHex(key) + ".phlg");
}

std::optional<std::vector<std::uint8_t>> ArtifactCache::fetch(std::uint64_t key,
                                                              std::uint32_t type) const {
    if (!enabled()) return std::nullopt;
    OBS_SPAN("cache.fetch");
    const fs::path path = entryPath(key);
    std::error_code ec;
    ArtifactReadResult r = readArtifactFile(path, type);
    if (!r.ok() && !fs::exists(path, ec)) {
        // Never stored, or removed by a peer's eviction before the read: a
        // clean miss, not a corrupt entry.
        stats_->misses.fetch_add(1, std::memory_order_relaxed);
        PHLOGON_COUNT_METRIC("cache.misses");
        OBS_INSTANT("cache.miss");
        return std::nullopt;
    }
    if (!r.ok()) {
        // Corrupt / stale-version / mistyped entry: drop it so the slot is
        // clean for the recompute-and-store that follows.  WrongType means a
        // (vanishingly unlikely) key collision across artifact kinds — also
        // best removed.  Under the directory lock: another process may have
        // just re-published a good entry at this path, and an unlocked
        // remove() would delete its fresh store (re-check under the lock).
        {
            FileLock lock(lockPath());
            const ArtifactProbe probe = probeArtifactFile(path);
            if (probe.status != ArtifactStatus::Ok || probe.header.type != type)
                fs::remove(path, ec);
        }
        stats_->corruptions.fetch_add(1, std::memory_order_relaxed);
        stats_->misses.fetch_add(1, std::memory_order_relaxed);
        PHLOGON_COUNT_METRIC("cache.corruptions");
        PHLOGON_COUNT_METRIC("cache.misses");
        OBS_INSTANT("cache.miss");
        return std::nullopt;
    }
    // LRU touch: a hit refreshes the entry's eviction priority.
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    stats_->hits.fetch_add(1, std::memory_order_relaxed);
    PHLOGON_COUNT_METRIC("cache.hits");
    OBS_INSTANT("cache.hit");
    return std::move(r.payload);
}

bool ArtifactCache::store(std::uint64_t key, std::uint32_t type,
                          const std::vector<std::uint8_t>& payload) const {
    if (!enabled()) return false;
    OBS_SPAN("cache.store");
    // One lock spans publish + prune: concurrent writers serialize their
    // store/evict cycles, so eviction always sees the directory state its
    // own budget math was computed from (no double-evict below watermark,
    // no pruning a neighbour's store mid-publication).  See file_lock.hpp.
    FileLock lock(lockPath());
    if (!writeArtifactFile(entryPath(key), type, payload)) return false;
    stats_->stores.fetch_add(1, std::memory_order_relaxed);
    PHLOGON_COUNT_METRIC("cache.stores");
    evictLocked();
    return true;
}

std::vector<ArtifactCache::Entry> ArtifactCache::entries() const {
    std::vector<Entry> out;
    if (!enabled()) return out;
    std::error_code ec;
    fs::directory_iterator it(dir_, ec);
    if (ec) return out;
    for (const fs::directory_entry& de : it) {
        if (!de.is_regular_file(ec) || de.path().extension() != ".phlg") continue;
        Entry e;
        e.path = de.path();
        if (!parseHexStem(de.path().stem().string(), &e.key)) {
            // Foreign *.phlg file (a user's stray export, a typo'd rename):
            // not ours to key, and above all not ours to evict.
            stats_->foreign.fetch_add(1, std::memory_order_relaxed);
            PHLOGON_COUNT_METRIC("cache.foreign");
            continue;
        }
        e.fileBytes = de.file_size(ec);
        e.mtime = de.last_write_time(ec);
        const ArtifactProbe probe = probeArtifactFile(de.path());
        e.type = probe.header.type;
        e.valid = probe.status == ArtifactStatus::Ok;
        out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
    return out;
}

std::size_t ArtifactCache::evictToFit() const {
    if (!enabled()) return 0;
    FileLock lock(lockPath());
    return evictLocked();
}

fs::path ArtifactCache::lockPath() const { return dir_ / ".lock"; }

std::size_t ArtifactCache::evictLocked() const {
    std::vector<Entry> all = entries();
    std::uintmax_t total = 0;
    for (const Entry& e : all) total += e.fileBytes;
    std::size_t removed = 0;
    std::error_code ec;
    for (const Entry& e : all) {
        if (total <= maxBytes_) break;
        if (fs::remove(e.path, ec)) {
            total -= e.fileBytes;
            ++removed;
        }
    }
    if (removed) {
        stats_->evictions.fetch_add(removed, std::memory_order_relaxed);
        PHLOGON_ADD_METRIC("cache.evictions", removed);
    }
    return removed;
}

CacheStats ArtifactCache::stats() const {
    CacheStats s;
    s.hits = stats_->hits.load(std::memory_order_relaxed);
    s.misses = stats_->misses.load(std::memory_order_relaxed);
    s.stores = stats_->stores.load(std::memory_order_relaxed);
    s.evictions = stats_->evictions.load(std::memory_order_relaxed);
    s.corruptions = stats_->corruptions.load(std::memory_order_relaxed);
    s.foreign = stats_->foreign.load(std::memory_order_relaxed);
    return s;
}

}  // namespace phlogon::io
