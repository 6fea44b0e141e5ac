#include "io/cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "circuit/subckt.hpp"
#include "io/hash.hpp"
#include "io/model_cache.hpp"
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "phlogon/latch.hpp"

namespace phlogon::io {
namespace {

namespace fs = std::filesystem;

class CacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test directory: ctest runs each discovered test in its own
        // process, possibly in parallel — a shared directory would let one
        // test's SetUp remove_all another's live entries.
        dir_ = fs::temp_directory_path() /
               (std::string("phlogon_io_cache_test_") +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    fs::path dir_;
};

std::vector<std::uint8_t> bytesOf(std::initializer_list<int> v) {
    std::vector<std::uint8_t> out;
    for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
    return out;
}

TEST_F(CacheTest, DisabledCacheMissesAndDropsStores) {
    const ArtifactCache cache;  // no directory
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.store(1, kTypeMcCheckpoint, bytesOf({1, 2})));
    EXPECT_FALSE(cache.fetch(1, kTypeMcCheckpoint).has_value());
    EXPECT_TRUE(cache.entries().empty());
    EXPECT_EQ(cache.evictToFit(), 0u);
}

TEST_F(CacheTest, StoreThenFetchRoundTrips) {
    const ArtifactCache cache(dir_);
    const auto payload = bytesOf({10, 20, 30, 40});
    ASSERT_TRUE(cache.store(0xABCDEF0123456789ull, kTypeMcCheckpoint, payload));
    EXPECT_TRUE(fs::exists(dir_ / "abcdef0123456789.phlg"));
    const auto hit = cache.fetch(0xABCDEF0123456789ull, kTypeMcCheckpoint);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, payload);
    // A different key misses without touching the stored entry.
    EXPECT_FALSE(cache.fetch(0x1111, kTypeMcCheckpoint).has_value());
    EXPECT_TRUE(fs::exists(dir_ / "abcdef0123456789.phlg"));
}

TEST_F(CacheTest, WrongTypeFetchRemovesEntry) {
    const ArtifactCache cache(dir_);
    ASSERT_TRUE(cache.store(7, kTypeCharacterization, bytesOf({1})));
    EXPECT_FALSE(cache.fetch(7, kTypeMcCheckpoint).has_value());
    EXPECT_FALSE(fs::exists(cache.entryPath(7)));  // mistyped entry dropped
}

TEST_F(CacheTest, CorruptEntryIsRemovedAndReportsMiss) {
    const ArtifactCache cache(dir_);
    ASSERT_TRUE(cache.store(42, kTypeMcCheckpoint, bytesOf({5, 6, 7, 8})));
    // Flip a payload byte in place.
    const fs::path p = cache.entryPath(42);
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kHeaderSize + 2));
    f.put(static_cast<char>(0x7F));
    f.close();
    EXPECT_FALSE(cache.fetch(42, kTypeMcCheckpoint).has_value());
    EXPECT_FALSE(fs::exists(p));  // corrupt entry dropped
    // The slot is clean: a re-store works and fetches again.
    ASSERT_TRUE(cache.store(42, kTypeMcCheckpoint, bytesOf({5, 6, 7, 8})));
    EXPECT_TRUE(cache.fetch(42, kTypeMcCheckpoint).has_value());

    // An entry whose header claims 2^50 payload bytes is truncated, not an
    // allocation: the probe says so, fetch drops it as a miss, and a store
    // into the same cache (whose eviction pass scans every entry) succeeds.
    const fs::path huge = cache.entryPath(43);
    ASSERT_TRUE(cache.store(43, kTypeMcCheckpoint, bytesOf({1, 2, 3})));
    {
        std::fstream h(huge, std::ios::in | std::ios::out | std::ios::binary);
        h.seekp(12);  // payload size field, u64 little-endian
        const std::uint64_t claimed = std::uint64_t{1} << 50;
        for (int i = 0; i < 8; ++i) h.put(static_cast<char>(claimed >> (8 * i)));
    }
    EXPECT_EQ(probeArtifactFile(huge).status, ArtifactStatus::Truncated);
    ASSERT_TRUE(cache.store(44, kTypeMcCheckpoint, bytesOf({4})));
    EXPECT_FALSE(cache.fetch(43, kTypeMcCheckpoint).has_value());
    EXPECT_FALSE(fs::exists(huge));
    EXPECT_TRUE(cache.fetch(44, kTypeMcCheckpoint).has_value());
}

TEST_F(CacheTest, StoreDoesNotReadEntries) {
    // Eviction decides from names, sizes and mtimes, so a store reads no
    // entry back, however many the cache holds.
    const ArtifactCache cache(dir_);
    const std::vector<std::uint8_t> payload(256, 0x3C);
    for (std::uint64_t k = 0; k < 200; ++k)
        ASSERT_TRUE(cache.store(k, kTypeMcCheckpoint, payload));
    obs::setMetricsEnabled(true);
    const obs::Counter& reads = obs::MetricsRegistry::instance().counter("artifact.reads");
    const std::uint64_t before = reads.value();
    ASSERT_TRUE(cache.store(200, kTypeMcCheckpoint, payload));
    const std::uint64_t after = reads.value();
    obs::setMetricsEnabled(false);
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(cache.entries().size(), 201u);
}

TEST_F(CacheTest, EntriesListValidityAndOrder) {
    const ArtifactCache cache(dir_);
    ASSERT_TRUE(cache.store(1, kTypeMcCheckpoint, bytesOf({1})));
    ASSERT_TRUE(cache.store(2, kTypeCharacterization, bytesOf({2, 2})));
    const auto entries = cache.entries();
    ASSERT_EQ(entries.size(), 2u);
    for (const auto& e : entries) EXPECT_TRUE(e.valid);
    EXPECT_LE(entries[0].mtime, entries[1].mtime);
}

TEST_F(CacheTest, LruEvictionDropsOldestFirst) {
    // Cap small enough that three ~1 KiB entries cannot coexist.
    const std::vector<std::uint8_t> big(1024, 0x5A);
    const ArtifactCache cache(dir_, 2 * (kHeaderSize + big.size()));
    ASSERT_TRUE(cache.store(1, kTypeMcCheckpoint, big));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(cache.store(2, kTypeMcCheckpoint, big));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Touch entry 1 (fetch refreshes mtime), then overflow: 2 is now oldest.
    ASSERT_TRUE(cache.fetch(1, kTypeMcCheckpoint).has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(cache.store(3, kTypeMcCheckpoint, big));
    EXPECT_TRUE(fs::exists(cache.entryPath(1)));
    EXPECT_FALSE(fs::exists(cache.entryPath(2)));
    EXPECT_TRUE(fs::exists(cache.entryPath(3)));
}

TEST_F(CacheTest, StatsCountOutcomesAndAreSharedAcrossCopies) {
    const ArtifactCache cache(dir_);
    const ArtifactCache copy = cache;  // copies address the same directory
    CacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses + s.stores + s.evictions + s.corruptions + s.foreign, 0u);

    ASSERT_TRUE(cache.store(1, kTypeMcCheckpoint, bytesOf({1, 2, 3})));
    EXPECT_TRUE(copy.fetch(1, kTypeMcCheckpoint).has_value());   // hit
    EXPECT_FALSE(cache.fetch(2, kTypeMcCheckpoint).has_value());  // miss
    // Corrupt the entry: the next fetch counts a corruption AND a miss.
    const fs::path p = cache.entryPath(1);
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kHeaderSize + 1));
    f.put(static_cast<char>(0x7F));
    f.close();
    EXPECT_FALSE(cache.fetch(1, kTypeMcCheckpoint).has_value());

    s = copy.stats();  // the copy observes the same counters
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.corruptions, 1u);
    EXPECT_EQ(s.evictions, 0u);
}

TEST_F(CacheTest, ForeignPhlgFilesAreSkippedNotKeyedAsZero) {
    // Regression: entries() used to run strtoull(stem, nullptr, 16) with no
    // end-pointer check, so a stray "garbage.phlg" parsed as key 0, was
    // listed as a (corrupt) entry, and entered the LRU eviction pool — a
    // cache scan could delete a user's file it never created.
    const ArtifactCache cache(dir_);
    ASSERT_TRUE(cache.store(1, kTypeMcCheckpoint, bytesOf({1, 2, 3})));
    const fs::path garbage = dir_ / "garbage.phlg";
    const fs::path shortHex = dir_ / "abc.phlg";        // hex but not 16 digits
    const fs::path mixed = dir_ / "0123456789abcdeg.phlg";  // 16 chars, non-hex 'g'
    for (const fs::path& p : {garbage, shortHex, mixed}) {
        std::ofstream f(p, std::ios::binary);
        f << "not a cache artifact";
    }

    const auto entries = cache.entries();
    ASSERT_EQ(entries.size(), 1u);  // only the real key is listed
    EXPECT_EQ(entries[0].key, 1u);
    EXPECT_EQ(cache.stats().foreign, 3u);

    // Overflow the budget: eviction may drop real entries but must never
    // touch the foreign files.
    const ArtifactCache tiny(dir_, 1);  // 1-byte budget evicts everything keyed
    EXPECT_GE(tiny.evictToFit(), 1u);
    EXPECT_FALSE(fs::exists(cache.entryPath(1)));
    EXPECT_TRUE(fs::exists(garbage));
    EXPECT_TRUE(fs::exists(shortHex));
    EXPECT_TRUE(fs::exists(mixed));

    // Uppercase 16-digit hex stems are still accepted as keys.
    std::ofstream(dir_ / "00000000000000AB.phlg", std::ios::binary) << "x";
    bool sawUpper = false;
    for (const auto& e : cache.entries()) sawUpper = sawUpper || e.key == 0xABu;
    EXPECT_TRUE(sawUpper);
}

TEST_F(CacheTest, StatsCountEvictions) {
    // 1 KiB budget with ~40-byte entries: storing many forces LRU pruning.
    const ArtifactCache cache(dir_, 1024);
    for (std::uint64_t k = 0; k < 64; ++k)
        ASSERT_TRUE(cache.store(k, kTypeMcCheckpoint, bytesOf({1, 2, 3, 4})));
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.stores, 64u);
    EXPECT_GE(s.evictions, 1u);
    EXPECT_EQ(s.stores - s.evictions, cache.entries().size());
}

class FromEnvTest : public CacheTest {
protected:
    void SetUp() override {
        CacheTest::SetUp();
        ::setenv("PHLOGON_CACHE_DIR", dir_.c_str(), 1);
    }
    void TearDown() override {
        ::unsetenv("PHLOGON_CACHE_DIR");
        ::unsetenv("PHLOGON_CACHE_MAX_MB");
        CacheTest::TearDown();
    }
};

TEST_F(FromEnvTest, ParsesMaxMb) {
    ::setenv("PHLOGON_CACHE_MAX_MB", "64", 1);
    const ArtifactCache cache = ArtifactCache::fromEnv();
    EXPECT_TRUE(cache.enabled());
    EXPECT_EQ(cache.maxBytes(), 64ull * 1024 * 1024);
}

TEST_F(FromEnvTest, HugeMaxMbSaturatesInsteadOfWrapping) {
    // Regression: ULLONG_MAX megabytes used to overflow v * 1024 * 1024 and
    // wrap around to a tiny byte budget, silently evicting the whole cache.
    ::setenv("PHLOGON_CACHE_MAX_MB", "18446744073709551615", 1);
    const ArtifactCache cache = ArtifactCache::fromEnv();
    EXPECT_EQ(cache.maxBytes(), std::numeric_limits<std::uintmax_t>::max());
    // Any value at or above max/2^20 MB saturates too.
    ::setenv("PHLOGON_CACHE_MAX_MB", "17592186044416", 1);  // 2^64 / 2^20
    EXPECT_EQ(ArtifactCache::fromEnv().maxBytes(), std::numeric_limits<std::uintmax_t>::max());
}

TEST_F(FromEnvTest, UnparseableMaxMbKeepsDefault) {
    for (const char* bad : {"12abc", "abc", "-5", ""}) {
        ::setenv("PHLOGON_CACHE_MAX_MB", bad, 1);
        const ArtifactCache cache = ArtifactCache::fromEnv();
        EXPECT_EQ(cache.maxBytes(), ArtifactCache::kDefaultMaxBytes) << "value='" << bad << "'";
    }
}

TEST_F(CacheTest, HashHexIs16LowercaseDigits) {
    EXPECT_EQ(hashHex(0), "0000000000000000");
    EXPECT_EQ(hashHex(0xABCDEF0123456789ull), "abcdef0123456789");
}

TEST_F(CacheTest, Fnv1a64MatchesReferenceVectors) {
    // Standard FNV-1a test vectors (raw byte stream, no length framing).
    EXPECT_EQ(Fnv1a64().digest(), 0xcbf29ce484222325ull);
    EXPECT_EQ(Fnv1a64().bytes("a", 1).digest(), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(Fnv1a64().bytes("foobar", 6).digest(), 0x85944171f73967e8ull);
    // Order and field separation matter: "ab" then "c" != "a" then "bc" is
    // NOT guaranteed by raw FNV (it is a plain stream), but str() folds the
    // length so concatenation ambiguity cannot alias keys.
    EXPECT_NE(Fnv1a64().str("ab").str("c").digest(), Fnv1a64().str("a").str("bc").digest());
}

// ---- cache-aware characterization flow ------------------------------------

class ModelCacheTest : public CacheTest {};

TEST_F(ModelCacheTest, CharacterizeMissesThenHitsWithZeroedCounters) {
    ckt::Netlist nl;
    ckt::buildRingOscillator(nl, "osc", ckt::RingOscSpec{});
    ckt::Dae dae(nl);
    const an::PssOptions pssOpt = logic::RingOscCharacterization::defaultPssOptions();
    const ArtifactCache cache(dir_);

    const auto key = characterizationKey(nl, pssOpt);
    ASSERT_TRUE(key.has_value());  // ring oscillator devices all canonical

    const auto cold = characterizeCached(dae, nl, pssOpt, cache);
    ASSERT_TRUE(cold.value.pss.ok);
    ASSERT_TRUE(cold.value.ppv.ok);
    EXPECT_EQ(cold.outcome, CacheOutcome::Miss);
    EXPECT_EQ(cold.key, *key);
    EXPECT_GT(cold.value.pss.counters.luFactorizations, 0u);

    const auto warm = characterizeCached(dae, nl, pssOpt, cache);
    ASSERT_TRUE(warm.value.pss.ok);
    EXPECT_EQ(warm.outcome, CacheOutcome::Hit);
    // Counters report work done *this run*: a hit does none.
    EXPECT_EQ(warm.value.pss.counters.luFactorizations, 0u);
    EXPECT_EQ(warm.value.pss.counters.rhsEvals, 0u);
    // The physics payload is bit-identical to the computed one.
    EXPECT_EQ(warm.value.pss.period, cold.value.pss.period);
    ASSERT_EQ(warm.value.ppv.v.size(), cold.value.ppv.v.size());
    for (std::size_t k = 0; k < cold.value.ppv.v.size(); ++k)
        for (std::size_t i = 0; i < cold.value.ppv.v[k].size(); ++i)
            EXPECT_EQ(warm.value.ppv.v[k][i], cold.value.ppv.v[k][i]);
}

TEST_F(ModelCacheTest, CorruptCacheEntryRecomputesInsteadOfCrashing) {
    ckt::Netlist nl;
    ckt::buildRingOscillator(nl, "osc", ckt::RingOscSpec{});
    ckt::Dae dae(nl);
    const an::PssOptions pssOpt = logic::RingOscCharacterization::defaultPssOptions();
    const ArtifactCache cache(dir_);

    const auto cold = characterizeCached(dae, nl, pssOpt, cache);
    ASSERT_EQ(cold.outcome, CacheOutcome::Miss);

    // Truncate the stored artifact mid-payload.
    const fs::path p = cache.entryPath(cold.key);
    ASSERT_TRUE(fs::exists(p));
    fs::resize_file(p, fs::file_size(p) / 2);

    const auto again = characterizeCached(dae, nl, pssOpt, cache);
    EXPECT_EQ(again.outcome, CacheOutcome::Miss);  // recomputed, no crash
    ASSERT_TRUE(again.value.pss.ok);
    EXPECT_GT(again.value.pss.counters.luFactorizations, 0u);
    // And the recompute re-published a valid entry.
    EXPECT_EQ(characterizeCached(dae, nl, pssOpt, cache).outcome, CacheOutcome::Hit);
}

TEST_F(ModelCacheTest, NonCanonicalNetlistIsNotCacheable) {
    ckt::Netlist nl;
    const ckt::RingOscNodes nodes = ckt::buildRingOscillator(nl, "osc", ckt::RingOscSpec{});
    // A time switch carries an opaque std::function control: no sound key.
    nl.addSwitch("sw", nodes.out(), "0", [](double) { return false; }, 1.0, 1e9);
    EXPECT_TRUE(nl.canonicalForm().empty());
    EXPECT_FALSE(characterizationKey(nl, {}).has_value());

    ckt::Dae dae(nl);
    const ArtifactCache cache(dir_);
    const auto r =
        characterizeCached(dae, nl, logic::RingOscCharacterization::defaultPssOptions(), cache);
    EXPECT_EQ(r.outcome, CacheOutcome::NotCacheable);
    EXPECT_TRUE(r.value.pss.ok);  // still computes the real answer
    EXPECT_TRUE(cache.entries().empty());
}

TEST_F(ModelCacheTest, KeyChangesWithOptionsAndCircuit) {
    ckt::Netlist nl;
    ckt::buildRingOscillator(nl, "osc", ckt::RingOscSpec{});
    const an::PssOptions pssOpt = logic::RingOscCharacterization::defaultPssOptions();
    an::PssOptions pssOpt2 = pssOpt;
    pssOpt2.shootingSteps += 1;
    const auto k1 = characterizationKey(nl, pssOpt);
    const auto k2 = characterizationKey(nl, pssOpt2);
    ASSERT_TRUE(k1 && k2);
    EXPECT_NE(*k1, *k2);

    // The LU backend: dense and sparse agree only to solver tolerance, so
    // they must not share an entry.
    an::PssOptions sparse = pssOpt;
    sparse.stepNewton.linearSolver = num::LinearSolver::Sparse;
    const auto kSparse = characterizationKey(nl, sparse);
    ASSERT_TRUE(kSparse.has_value());
    EXPECT_NE(*k1, *kSparse);

    ckt::Netlist nl2;
    ckt::RingOscSpec spec;
    spec.capFarads *= 1.0000001;  // tiny parameter change must change the key
    ckt::buildRingOscillator(nl2, "osc", spec);
    const auto k3 = characterizationKey(nl2, pssOpt);
    ASSERT_TRUE(k3.has_value());
    EXPECT_NE(*k1, *k3);
}

}  // namespace
}  // namespace phlogon::io
