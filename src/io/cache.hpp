#pragma once
// Content-addressed artifact cache.
//
// Entries live as "<dir>/<16-hex-digit-key>.phlg" artifact files (see
// io/serialize.hpp for the container layout).  The key is a 64-bit FNV-1a
// content hash of everything that determines the artifact (io/hash.hpp), so
// the cache never needs explicit invalidation: change the netlist, an
// analysis option or the format version and the key changes with it.
//
// Robustness policy — the cache may *never* turn a working flow into a
// failing one:
//   * disabled (PHLOGON_CACHE_DIR unset/empty, or unwritable dir): every
//     fetch misses, every store is a no-op;
//   * corrupt/truncated/stale-version entry on fetch: the entry is deleted
//     and the fetch reports a miss — the caller recomputes and re-stores;
//   * store errors (disk full, permissions): silently dropped;
//   * publication is atomic (write-temp-then-rename), so concurrent
//     processes sharing one cache directory at worst redo work;
//   * every mutating pass (store+prune, eviction, corrupt-entry removal)
//     holds an advisory flock on "<dir>/.lock" (io/file_lock.hpp) so
//     concurrent writers cannot double-evict below the watermark or delete
//     an entry a peer just re-published; an unacquirable lock degrades to
//     the old unlocked-but-atomic behaviour.
//
// Size control: after each store the directory is LRU-pruned to maxBytes
// (default 256 MiB, override PHLOGON_CACHE_MAX_MB) using file sizes and
// mtimes from one directory scan, without reading any entry; fetch hits
// touch the entry's mtime so hot artifacts survive eviction.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace phlogon::io {

/// Process-lifetime outcome counters for one cache (copies of an
/// ArtifactCache share the same counters, as they address the same
/// directory).  Mirrored into the metrics registry ("cache.hits", ...) when
/// PHLOGON_METRICS is enabled; always collected here so tools can print
/// them unconditionally.
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        ///< includes corrupt entries dropped
    std::uint64_t stores = 0;        ///< successful publications
    std::uint64_t evictions = 0;     ///< entries removed by LRU pruning
    std::uint64_t corruptions = 0;   ///< invalid entries deleted on fetch
    std::uint64_t foreign = 0;       ///< non-cache *.phlg files skipped by scans
};

class ArtifactCache {
public:
    static constexpr std::uintmax_t kDefaultMaxBytes = 256ull * 1024 * 1024;

    /// Disabled cache (every fetch misses, stores are no-ops).
    ArtifactCache() = default;
    /// Cache rooted at `dir` (created on first store).
    explicit ArtifactCache(std::filesystem::path dir,
                           std::uintmax_t maxBytes = kDefaultMaxBytes);

    /// Cache configured from the environment: PHLOGON_CACHE_DIR (unset or
    /// empty => disabled) and PHLOGON_CACHE_MAX_MB.
    static ArtifactCache fromEnv();
    /// Process-wide instance built from the environment once.
    static const ArtifactCache& global();

    bool enabled() const { return !dir_.empty(); }
    const std::filesystem::path& dir() const { return dir_; }
    std::uintmax_t maxBytes() const { return maxBytes_; }

    std::filesystem::path entryPath(std::uint64_t key) const;
    /// Advisory lock file guarding mutating passes ("<dir>/.lock").
    std::filesystem::path lockPath() const;

    /// Payload bytes for `key` if a valid artifact of `type` exists.
    /// Invalid entries (bad CRC, wrong version, truncated) are removed.
    std::optional<std::vector<std::uint8_t>> fetch(std::uint64_t key, std::uint32_t type) const;

    /// Publish payload bytes under `key` (atomic), then LRU-prune the
    /// directory to maxBytes.  Returns false if the entry was not published.
    bool store(std::uint64_t key, std::uint32_t type,
               const std::vector<std::uint8_t>& payload) const;

    /// One cache entry as listed by the inspection tool.
    struct Entry {
        std::filesystem::path path;
        std::uint64_t key = 0;
        std::uint32_t type = 0;
        std::uintmax_t fileBytes = 0;
        std::filesystem::file_time_type mtime;
        bool valid = false;  ///< header + CRC check passed
    };
    /// All *.phlg entries in the cache directory, oldest mtime first, each
    /// read and CRC-checked (the inspection tool's listing).
    /// Only files whose stem is a full 16-hex-digit key (the only names the
    /// cache ever writes) are listed: anything else is a foreign file —
    /// counted in CacheStats::foreign, never keyed, never LRU-evicted.
    std::vector<Entry> entries() const;

    /// Remove oldest entries until the directory is within `maxBytes`,
    /// under the directory lock.  Exposed for tests; store() runs the same
    /// pass inside its own lock scope.  Returns the number of files removed.
    std::size_t evictToFit() const;

    /// Snapshot of this cache's hit/miss/store/eviction/corruption counts.
    CacheStats stats() const;

private:
    struct StatCells {
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint64_t> stores{0};
        std::atomic<std::uint64_t> evictions{0};
        std::atomic<std::uint64_t> corruptions{0};
        std::atomic<std::uint64_t> foreign{0};
    };

    /// entries() from names, sizes and mtimes alone: no file is read, so
    /// `type` and `valid` stay unset.
    std::vector<Entry> list() const;
    /// Eviction body; caller holds the directory lock.
    std::size_t evictLocked() const;

    std::filesystem::path dir_;
    std::uintmax_t maxBytes_ = kDefaultMaxBytes;
    // shared_ptr so the (copyable) cache value type keeps one set of
    // counters per logical cache; const methods count through it.
    std::shared_ptr<StatCells> stats_ = std::make_shared<StatCells>();
};

}  // namespace phlogon::io
