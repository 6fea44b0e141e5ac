#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/temp_path.hpp"
#include "io/artifact.hpp"

namespace phlogon::io {
namespace {

namespace fs = std::filesystem;
using num::Vec;

class SerializeTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = testutil::perTestTempPath("phlogon_io_serialize_test");
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    fs::path dir_;

    fs::path file(const char* name) const { return dir_ / name; }

    static std::vector<std::uint8_t> slurp(const fs::path& p) {
        std::ifstream in(p, std::ios::binary);
        return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
    }
    static void dump(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
};

// ---- primitives ------------------------------------------------------------

TEST_F(SerializeTest, WriterReaderRoundTripsPrimitives) {
    BinaryWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFull);
    w.f64(-0.0);
    w.f64(1.0 / 3.0);
    w.str("hello \0 world");  // embedded NUL truncates at the literal, fine
    w.vec(Vec{1.5, -2.25, 3e-300});
    w.vecList({Vec{1.0}, Vec{}, Vec{2.0, 3.0}});
    w.strList({"a", "", "long-ish string with spaces"});

    BinaryReader r(w.bytes());
    std::uint8_t u8v = 0;
    std::uint32_t u32v = 0;
    std::uint64_t u64v = 0;
    double d1 = 0, d2 = 0;
    std::string s;
    Vec v;
    std::vector<Vec> vs;
    std::vector<std::string> ss;
    ASSERT_TRUE(r.u8(u8v));
    ASSERT_TRUE(r.u32(u32v));
    ASSERT_TRUE(r.u64(u64v));
    ASSERT_TRUE(r.f64(d1));
    ASSERT_TRUE(r.f64(d2));
    ASSERT_TRUE(r.str(s));
    ASSERT_TRUE(r.vec(v));
    ASSERT_TRUE(r.vecList(vs));
    ASSERT_TRUE(r.strList(ss));
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(u8v, 0xAB);
    EXPECT_EQ(u32v, 0xDEADBEEFu);
    EXPECT_EQ(u64v, 0x0123456789ABCDEFull);
    EXPECT_TRUE(std::signbit(d1));  // -0.0 preserved bitwise
    EXPECT_EQ(d2, 1.0 / 3.0);
    EXPECT_EQ(s, std::string("hello "));
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2], 3e-300);
    ASSERT_EQ(vs.size(), 3u);
    EXPECT_EQ(vs[1].size(), 0u);
    EXPECT_EQ(vs[2][1], 3.0);
    ASSERT_EQ(ss.size(), 3u);
    EXPECT_EQ(ss[2], "long-ish string with spaces");
}

TEST_F(SerializeTest, ReaderReportsTruncationWithoutReadingGarbage) {
    BinaryWriter w;
    w.u64(42);
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes.resize(5);  // mid-u64
    BinaryReader r(bytes);
    std::uint64_t v = 7;
    EXPECT_FALSE(r.u64(v));
    EXPECT_EQ(v, 7u);  // untouched on failure

    BinaryWriter w2;
    w2.str("abcdef");
    std::vector<std::uint8_t> b2 = w2.bytes();
    b2.resize(b2.size() - 2);  // cut the string body short
    BinaryReader r2(b2);
    std::string s = "sentinel";
    EXPECT_FALSE(r2.str(s));
    EXPECT_EQ(s, "sentinel");
}

TEST_F(SerializeTest, Crc32MatchesKnownVector) {
    // The classic IEEE 802.3 check value.
    const char* s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// ---- artifact container ----------------------------------------------------

TEST_F(SerializeTest, ArtifactFileRoundTrips) {
    const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 250, 251};
    ASSERT_TRUE(writeArtifactFile(file("a.phlg"), kTypeCharacterization, payload));

    const ArtifactReadResult r = readArtifactFile(file("a.phlg"), kTypeCharacterization);
    ASSERT_TRUE(r.ok()) << statusName(r.status);
    EXPECT_EQ(r.payload, payload);
    EXPECT_EQ(r.header.version, kFormatVersion);
    EXPECT_EQ(r.header.type, kTypeCharacterization);
    EXPECT_EQ(r.header.payloadSize, payload.size());

    const ArtifactProbe p = probeArtifactFile(file("a.phlg"));
    EXPECT_EQ(p.status, ArtifactStatus::Ok);
    EXPECT_TRUE(p.crcOk);

    // No temp files left behind by the atomic write.
    std::size_t files = 0;
    for ([[maybe_unused]] const auto& de : fs::directory_iterator(dir_)) ++files;
    EXPECT_EQ(files, 1u);
}

TEST_F(SerializeTest, MissingFileIsIoError) {
    EXPECT_EQ(readArtifactFile(file("absent.phlg")).status, ArtifactStatus::IoError);
    EXPECT_EQ(probeArtifactFile(file("absent.phlg")).status, ArtifactStatus::IoError);
}

TEST_F(SerializeTest, TruncatedFileDetected) {
    ASSERT_TRUE(writeArtifactFile(file("t.phlg"), kTypeSweepLockingRange, {9, 8, 7, 6, 5, 4, 3, 2}));
    std::vector<std::uint8_t> bytes = slurp(file("t.phlg"));
    bytes.resize(bytes.size() - 3);  // cut into the payload
    dump(file("t.phlg"), bytes);
    EXPECT_EQ(readArtifactFile(file("t.phlg")).status, ArtifactStatus::Truncated);

    bytes.resize(kHeaderSize - 4);  // not even a full header
    dump(file("t.phlg"), bytes);
    EXPECT_EQ(readArtifactFile(file("t.phlg")).status, ArtifactStatus::IoError);
}

TEST_F(SerializeTest, FlippedPayloadByteFailsCrc) {
    ASSERT_TRUE(writeArtifactFile(file("c.phlg"), kTypeSweepLockingRange, {1, 2, 3, 4}));
    std::vector<std::uint8_t> bytes = slurp(file("c.phlg"));
    bytes[kHeaderSize + 1] ^= 0x40;
    dump(file("c.phlg"), bytes);
    EXPECT_EQ(readArtifactFile(file("c.phlg")).status, ArtifactStatus::BadCrc);
}

TEST_F(SerializeTest, FlippedCrcByteFailsCrc) {
    ASSERT_TRUE(writeArtifactFile(file("c2.phlg"), kTypeSweepLockingRange, {1, 2, 3, 4}));
    std::vector<std::uint8_t> bytes = slurp(file("c2.phlg"));
    bytes[20] ^= 0x01;  // CRC field lives at offset 20..23
    dump(file("c2.phlg"), bytes);
    EXPECT_EQ(readArtifactFile(file("c2.phlg")).status, ArtifactStatus::BadCrc);
}

TEST_F(SerializeTest, WrongVersionRejected) {
    ASSERT_TRUE(writeArtifactFile(file("v.phlg"), kTypeSweepLockingRange, {1, 2}));
    std::vector<std::uint8_t> bytes = slurp(file("v.phlg"));
    bytes[4] = static_cast<std::uint8_t>(kFormatVersion + 1);  // version field
    dump(file("v.phlg"), bytes);
    EXPECT_EQ(readArtifactFile(file("v.phlg")).status, ArtifactStatus::BadVersion);
}

TEST_F(SerializeTest, BadMagicAndWrongTypeRejected) {
    ASSERT_TRUE(writeArtifactFile(file("m.phlg"), kTypeCharacterization, {1}));
    std::vector<std::uint8_t> bytes = slurp(file("m.phlg"));
    bytes[0] = 'X';
    dump(file("m.phlg"), bytes);
    EXPECT_EQ(readArtifactFile(file("m.phlg")).status, ArtifactStatus::BadMagic);

    ASSERT_TRUE(writeArtifactFile(file("ty.phlg"), kTypeCharacterization, {1}));
    EXPECT_EQ(readArtifactFile(file("ty.phlg"), kTypeSweepLockingRange).status, ArtifactStatus::WrongType);
    EXPECT_TRUE(readArtifactFile(file("ty.phlg")).ok());  // expectedType 0 = any
}

TEST_F(SerializeTest, ConcurrentWritersPublishWholeArtifacts) {
    // Three threads of one process rewrite the same path while a fourth
    // reads it: every write publishes, and every read sees one whole
    // artifact, never a temp file another writer truncated or renamed away.
    constexpr std::size_t kWriters = 3, kWrites = 200;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::size_t w = 0; w < kWriters; ++w)
        payloads.emplace_back(100000 + 50000 * w, static_cast<std::uint8_t>(w + 1));
    const fs::path path = file("shared.phlg");
    ASSERT_TRUE(writeArtifactFile(path, kTypeCharacterization, payloads[0]));

    const auto isKnown = [&payloads](const std::vector<std::uint8_t>& p) {
        return std::find(payloads.begin(), payloads.end(), p) != payloads.end();
    };
    std::atomic<std::size_t> failedWrites{0}, badReads{0}, reads{0};
    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load()) {
            const ArtifactReadResult r = readArtifactFile(path, kTypeCharacterization);
            if (!r.ok() || !isKnown(r.payload)) ++badReads;
            ++reads;
        }
    });
    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < kWriters; ++w)
        writers.emplace_back([&, w] {
            for (std::size_t k = 0; k < kWrites; ++k)
                if (!writeArtifactFile(path, kTypeCharacterization, payloads[w])) ++failedWrites;
        });
    for (std::thread& t : writers) t.join();
    done = true;
    reader.join();

    EXPECT_EQ(failedWrites.load(), 0u);
    EXPECT_EQ(badReads.load(), 0u) << "of " << reads.load() << " reads";
    const ArtifactReadResult last = readArtifactFile(path, kTypeCharacterization);
    ASSERT_TRUE(last.ok()) << statusName(last.status);
    EXPECT_TRUE(isKnown(last.payload));
}

// ---- typed payloads --------------------------------------------------------

an::PssResult fakePss() {
    an::PssResult pss;
    pss.ok = true;
    pss.message = "converged";
    pss.period = 1.0 / 9.6e3;
    pss.f0 = 9.6e3;
    pss.phaseUnknown = 2;
    pss.shootResidual = 1.25e-11;
    pss.shootIterations = 7;
    pss.xs = {Vec{0.1, 0.2, -0.3}, Vec{0.4, 0.5, 0.6}};
    pss.xFine = {Vec{1e-5, 2e-5, 3e-5}, Vec{4e-5, 5e-5, 6e-5}, Vec{7e-5, 8e-5, 9e-5}};
    pss.tFine = Vec{0.0, 0.5e-4, 1.0e-4};
    pss.counters.rhsEvals = 1234;
    pss.counters.luFactorizations = 99;
    pss.counters.wallSeconds = 0.0625;  // exactly representable
    return pss;
}

an::PpvResult fakePpv() {
    an::PpvResult ppv;
    ppv.ok = true;
    ppv.period = 1.0 / 9.6e3;
    ppv.f0 = 9.6e3;
    ppv.v = {Vec{0.9, -0.8}, Vec{0.7, 0.6}, Vec{0.5, -0.4}};
    ppv.floquetMu = 0.999999321;
    ppv.normalizationSpread = 3.5e-7;
    ppv.sweepsUsed = 4;
    return ppv;
}

void expectBitwiseEqual(const an::PssResult& a, const an::PssResult& b) {
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.message, b.message);
    EXPECT_EQ(a.period, b.period);
    EXPECT_EQ(a.f0, b.f0);
    EXPECT_EQ(a.phaseUnknown, b.phaseUnknown);
    EXPECT_EQ(a.shootResidual, b.shootResidual);
    EXPECT_EQ(a.shootIterations, b.shootIterations);
    ASSERT_EQ(a.xs.size(), b.xs.size());
    for (std::size_t k = 0; k < a.xs.size(); ++k)
        for (std::size_t i = 0; i < a.xs[k].size(); ++i) EXPECT_EQ(a.xs[k][i], b.xs[k][i]);
    ASSERT_EQ(a.xFine.size(), b.xFine.size());
    ASSERT_EQ(a.tFine.size(), b.tFine.size());
    for (std::size_t i = 0; i < a.tFine.size(); ++i) EXPECT_EQ(a.tFine[i], b.tFine[i]);
    EXPECT_EQ(a.counters.rhsEvals, b.counters.rhsEvals);
    EXPECT_EQ(a.counters.luFactorizations, b.counters.luFactorizations);
    EXPECT_EQ(a.counters.wallSeconds, b.counters.wallSeconds);
}

TEST_F(SerializeTest, PssResultRoundTripsBitwise) {
    const an::PssResult pss = fakePss();
    const auto back = decodePssResult(encodePssResult(pss));
    ASSERT_TRUE(back.has_value());
    expectBitwiseEqual(pss, *back);
}

TEST_F(SerializeTest, PpvResultRoundTripsBitwise) {
    const an::PpvResult ppv = fakePpv();
    const auto back = decodePpvResult(encodePpvResult(ppv));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->ok, ppv.ok);
    EXPECT_EQ(back->f0, ppv.f0);
    EXPECT_EQ(back->floquetMu, ppv.floquetMu);
    EXPECT_EQ(back->normalizationSpread, ppv.normalizationSpread);
    EXPECT_EQ(back->sweepsUsed, ppv.sweepsUsed);
    ASSERT_EQ(back->v.size(), ppv.v.size());
    for (std::size_t k = 0; k < ppv.v.size(); ++k)
        for (std::size_t i = 0; i < ppv.v[k].size(); ++i) EXPECT_EQ(back->v[k][i], ppv.v[k][i]);
}

TEST_F(SerializeTest, PpvModelRoundTripReproducesEveryQueryBitwise) {
    // The cache-hit path: a model built from a decoded CHAR payload answers
    // every query bitwise like the model built from the computed results.
    an::PssResult pss = fakePss();
    an::PpvResult ppv = fakePpv();
    // Make sizes consistent: 2 unknowns, 3 samples.
    pss.xs = {Vec{0.1, -0.2}, Vec{0.3, 0.4}, Vec{0.5, 0.6}};
    const core::PpvModel model = core::PpvModel::build(pss, ppv, 1, {"n1", "n2"});
    ASSERT_TRUE(model.valid());

    const auto decoded = decodeCharacterization(encodeCharacterization({pss, ppv}));
    ASSERT_TRUE(decoded.has_value());
    const core::PpvModel back = core::PpvModel::build(decoded->pss, decoded->ppv, 1, {"n1", "n2"});
    ASSERT_TRUE(back.valid());
    EXPECT_EQ(back.f0(), model.f0());
    EXPECT_EQ(back.size(), model.size());
    EXPECT_EQ(back.outputUnknown(), model.outputUnknown());
    EXPECT_EQ(back.unknownNames(), model.unknownNames());
    EXPECT_EQ(back.dphiPeak(), model.dphiPeak());
    EXPECT_EQ(back.waveformPeak(), model.waveformPeak());
    EXPECT_EQ(back.outputMean(), model.outputMean());
    EXPECT_EQ(back.outputAmplitude(), model.outputAmplitude());
    EXPECT_EQ(back.normalizationSpread(), model.normalizationSpread());
    ASSERT_EQ(back.sampleCount(), model.sampleCount());
    for (std::size_t idx = 0; idx < model.size(); ++idx)
        for (std::size_t k = 0; k < model.sampleCount(); ++k) {
            EXPECT_EQ(back.xsSamples(idx)[k], model.xsSamples(idx)[k]);
            EXPECT_EQ(back.ppvSamples(idx)[k], model.ppvSamples(idx)[k]);
        }
    // Rebuilt splines answer interpolated queries identically.
    for (double theta : {0.0, 0.17, 0.33, 0.5, 0.77, 0.999})
        for (std::size_t idx = 0; idx < model.size(); ++idx) {
            EXPECT_EQ(back.xsAt(idx, theta), model.xsAt(idx, theta));
            EXPECT_EQ(back.ppvAt(idx, theta), model.ppvAt(idx, theta));
        }
}

TEST_F(SerializeTest, CharacterizationBundleRoundTrips) {
    Characterization c{fakePss(), fakePpv()};
    const auto back = decodeCharacterization(encodeCharacterization(c));
    ASSERT_TRUE(back.has_value());
    expectBitwiseEqual(c.pss, back->pss);
    EXPECT_EQ(back->ppv.floquetMu, c.ppv.floquetMu);
}

TEST_F(SerializeTest, SweepTablesRoundTrip) {
    std::vector<core::LockingRangePoint> lr(3);
    lr[0] = {10e-6, {true, 9.55e3, 9.72e3}};
    lr[1] = {50e-6, {true, 9.31e3, 9.93e3}};
    lr[2] = {0.0, {false, 0.0, 0.0}};
    const auto lrBack = decodeLockingRangeTable(encodeLockingRangeTable(lr));
    ASSERT_TRUE(lrBack.has_value());
    ASSERT_EQ(lrBack->size(), 3u);
    EXPECT_EQ((*lrBack)[1].amplitude, 50e-6);
    EXPECT_EQ((*lrBack)[1].range.fLow, 9.31e3);
    EXPECT_FALSE((*lrBack)[2].range.locks);
}

TEST_F(SerializeTest, OdeSolutionAndTransientResultRoundTrip) {
    // The waveform shape that survives: a PSS result's fine trajectory
    // (time grid, per-point states, counters) round-trips bitwise, ragged
    // and empty state vectors included.
    an::PssResult pss;
    pss.ok = true;
    pss.message = "done";
    pss.tFine = Vec{0.0, 0.125, 0.25};
    pss.xFine = {Vec{1.0, 2.0}, Vec{}, Vec{1.75, 2.75, -0.0}};
    pss.counters.newtonIters = 12;
    pss.counters.rejectedSteps = 3;
    const auto back = decodePssResult(encodePssResult(pss));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->message, "done");
    EXPECT_EQ(back->tFine, pss.tFine);
    ASSERT_EQ(back->xFine.size(), 3u);
    EXPECT_TRUE(back->xFine[1].empty());
    EXPECT_EQ(back->xFine[2][1], 2.75);
    EXPECT_TRUE(std::signbit(back->xFine[2][2]));
    EXPECT_EQ(back->counters.newtonIters, 12u);
    EXPECT_EQ(back->counters.rejectedSteps, 3u);
}

TEST_F(SerializeTest, DecodersRejectTruncatedAndMistypedPayloads) {
    std::vector<std::uint8_t> payload = encodePssResult(fakePss());
    for (std::size_t cut : {std::size_t{0}, std::size_t{1}, payload.size() / 2,
                            payload.size() - 1}) {
        std::vector<std::uint8_t> part(payload.begin(),
                                       payload.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_FALSE(decodePssResult(part).has_value()) << "cut=" << cut;
    }

    // Element counts that cannot fit in the bytes left decode to nullopt.
    // A count of 2^61 or more wraps count * 8 in 64 bits, so the check must
    // not multiply: the first vec length in a CHAR payload (the PSS
    // result's first sample list) is set to 2^61 and 2^61 + 1 here.
    const std::vector<std::uint8_t> good = encodeCharacterization({fakePss(), fakePpv()});
    ASSERT_TRUE(decodeCharacterization(good).has_value());
    // CHAR = u64 PSS length, then the PSS payload: u8 ok, str message,
    // f64 period, f64 f0, u64 phaseUnknown, f64 residual, u64 iterations,
    // then the xs list count.
    const std::size_t xsCount = 8 + 1 + 8 + fakePss().message.size() + 5 * 8;
    for (std::uint64_t n : {std::uint64_t{1} << 61, (std::uint64_t{1} << 61) + 1}) {
        std::vector<std::uint8_t> bad = good;
        for (int i = 0; i < 8; ++i)
            bad[xsCount + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(n >> (8 * i));
        EXPECT_FALSE(decodeCharacterization(bad).has_value()) << "count " << n;
        // The same count as a single vec and as a string list.
        BinaryWriter w;
        w.u64(n);
        w.f64(1.0);
        Vec v;
        std::vector<Vec> vs;
        std::vector<std::string> ss;
        EXPECT_FALSE(BinaryReader(w.bytes()).vec(v));
        EXPECT_FALSE(BinaryReader(w.bytes()).vecList(vs));
        EXPECT_FALSE(BinaryReader(w.bytes()).strList(ss));
    }
}

}  // namespace
}  // namespace phlogon::io
