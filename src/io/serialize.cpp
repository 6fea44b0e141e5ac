#include "io/serialize.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "obs/metrics.hpp"

namespace phlogon::io {

namespace {

constexpr std::array<char, 4> kMagic{'P', 'H', 'L', 'G'};

/// Slicing-by-8 tables: t[0] is the byte-at-a-time table, and t[k][b] is
/// the CRC of byte b followed by k zero bytes, so eight table reads advance
/// the CRC by eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crcTables() {
    static const CrcTables tables = [] {
        CrcTables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < 8; ++k)
            for (std::size_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
        return t;
    }();
    return tables;
}

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t getU32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t getU64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

}  // namespace

std::string typeName(std::uint32_t type) {
    std::string s(4, '?');
    for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>(type >> (8 * i));
        s[static_cast<std::size_t>(i)] = (c >= 0x20 && c < 0x7f) ? c : '?';
    }
    return s;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
    const CrcTables& t = crcTables();
    std::uint32_t c = 0xFFFFFFFFu;
    for (; n >= 8; data += 8, n -= 8) {
        const std::uint32_t lo = c ^ getU32(data);
        const std::uint32_t hi = getU32(data + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++data, --n) c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ---- BinaryWriter ---------------------------------------------------------

void BinaryWriter::u32(std::uint32_t v) { putU32(buf_, v); }
void BinaryWriter::u64(std::uint64_t v) { putU64(buf_, v); }

void BinaryWriter::f64(double v) { putU64(buf_, std::bit_cast<std::uint64_t>(v)); }

void BinaryWriter::str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

// On a little-endian host a double's bytes in memory are its wire bytes, so
// vec() moves the whole array at once; the per-element arm is the portable
// layout every other host writes and reads.

void BinaryWriter::vec(const num::Vec& v) {
    u64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
        const auto* b = reinterpret_cast<const std::uint8_t*>(v.data());
        buf_.insert(buf_.end(), b, b + 8 * v.size());
    } else {
        for (double x : v) f64(x);
    }
}

void BinaryWriter::blob(const std::vector<std::uint8_t>& b) {
    u64(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
}

void BinaryWriter::vecList(const std::vector<num::Vec>& vs) {
    u64(vs.size());
    for (const num::Vec& v : vs) vec(v);
}

void BinaryWriter::strList(const std::vector<std::string>& ss) {
    u64(ss.size());
    for (const std::string& s : ss) str(s);
}

// ---- BinaryReader ---------------------------------------------------------

bool BinaryReader::u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = *p_++;
    return true;
}

bool BinaryReader::u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = getU32(p_);
    p_ += 4;
    return true;
}

bool BinaryReader::u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = getU64(p_);
    p_ += 8;
    return true;
}

bool BinaryReader::f64(double& v) {
    std::uint64_t bits;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
}

bool BinaryReader::str(std::string& s) {
    std::uint64_t n;
    if (!u64(n) || remaining() < n) return false;
    s.assign(reinterpret_cast<const char*>(p_), static_cast<std::size_t>(n));
    p_ += n;
    return true;
}

// The element counts below are compared as n > remaining() / 8, never as
// remaining() < n * 8: the product wraps for n >= 2^61, and a wrapped check
// would pass a count the resize() after it cannot allocate.

bool BinaryReader::vec(num::Vec& v) {
    std::uint64_t n;
    if (!u64(n) || n > remaining() / 8) return false;
    v.resize(static_cast<std::size_t>(n));
    if constexpr (std::endian::native == std::endian::little) {
        // std::copy, not memcpy: an empty vector's data() may be null.
        const std::size_t bytes = 8 * v.size();
        std::copy(p_, p_ + bytes, reinterpret_cast<std::uint8_t*>(v.data()));
        p_ += bytes;
    } else {
        for (double& x : v) {
            if (!f64(x)) return false;
        }
    }
    return true;
}

bool BinaryReader::blob(BinaryReader& sub) {
    std::uint64_t n;
    if (!u64(n) || remaining() < n) return false;
    sub = BinaryReader(p_, static_cast<std::size_t>(n));
    p_ += n;
    return true;
}

bool BinaryReader::vecList(std::vector<num::Vec>& vs) {
    std::uint64_t n;
    if (!u64(n) || n > remaining() / 8) return false;  // each vec is >= 8 bytes
    vs.resize(static_cast<std::size_t>(n));
    for (num::Vec& v : vs) {
        if (!vec(v)) return false;
    }
    return true;
}

bool BinaryReader::strList(std::vector<std::string>& ss) {
    std::uint64_t n;
    if (!u64(n) || n > remaining() / 8) return false;  // each string is >= 8 bytes
    ss.resize(static_cast<std::size_t>(n));
    for (std::string& s : ss) {
        if (!str(s)) return false;
    }
    return true;
}

// ---- artifact container ---------------------------------------------------

std::string statusName(ArtifactStatus s) {
    switch (s) {
        case ArtifactStatus::Ok: return "ok";
        case ArtifactStatus::IoError: return "io-error";
        case ArtifactStatus::BadMagic: return "bad-magic";
        case ArtifactStatus::BadVersion: return "bad-version";
        case ArtifactStatus::Truncated: return "truncated";
        case ArtifactStatus::BadCrc: return "bad-crc";
        case ArtifactStatus::WrongType: return "wrong-type";
    }
    return "unknown";
}

bool writeArtifactFile(const std::filesystem::path& path, std::uint32_t type,
                       const std::vector<std::uint8_t>& payload) {
    std::error_code ec;
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path(), ec);
        if (ec) return false;
    }

    std::vector<std::uint8_t> header;
    header.reserve(kHeaderSize);
    for (char c : kMagic) header.push_back(static_cast<std::uint8_t>(c));
    putU32(header, kFormatVersion);
    putU32(header, type);
    putU64(header, payload.size());
    putU32(header, crc32(payload.data(), payload.size()));

    // Unique temp name in the destination directory (same filesystem, so the
    // rename below is atomic).  The pid keeps processes apart and the counter
    // keeps threads apart: two threads sharing one temp file would truncate
    // or publish each other's half-written bytes.
    static std::atomic<std::uint64_t> tmpCounter{0};
    std::filesystem::path tmp = path;
    tmp += ".tmp." + std::to_string(static_cast<unsigned long>(::getpid())) + "." +
           std::to_string(tmpCounter.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return false;
        out.write(reinterpret_cast<const char*>(header.data()),
                  static_cast<std::streamsize>(header.size()));
        out.write(reinterpret_cast<const char*>(payload.data()),
                  static_cast<std::streamsize>(payload.size()));
        out.flush();
        if (!out) {
            out.close();
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    PHLOGON_COUNT_METRIC("artifact.writes");
    PHLOGON_ADD_METRIC("artifact.bytesWritten", header.size() + payload.size());
    return true;
}

namespace {

ArtifactStatus readAndCheckHeader(std::ifstream& in, ArtifactHeader& h) {
    std::array<std::uint8_t, kHeaderSize> raw;
    in.read(reinterpret_cast<char*>(raw.data()), kHeaderSize);
    if (in.gcount() != static_cast<std::streamsize>(kHeaderSize)) return ArtifactStatus::IoError;
    for (std::size_t i = 0; i < kMagic.size(); ++i)
        if (raw[i] != static_cast<std::uint8_t>(kMagic[i])) return ArtifactStatus::BadMagic;
    h.version = getU32(raw.data() + 4);
    h.type = getU32(raw.data() + 8);
    h.payloadSize = getU64(raw.data() + 12);
    h.crc = getU32(raw.data() + 20);
    if (h.version != kFormatVersion) return ArtifactStatus::BadVersion;
    return ArtifactStatus::Ok;
}

}  // namespace

ArtifactReadResult readArtifactFile(const std::filesystem::path& path,
                                    std::uint32_t expectedType) {
    ArtifactReadResult r;
    std::ifstream in(path, std::ios::binary);
    if (!in) return r;
    r.status = readAndCheckHeader(in, r.header);
    if (r.status != ArtifactStatus::Ok) return r;
    if (expectedType != 0 && r.header.type != expectedType) {
        r.status = ArtifactStatus::WrongType;
        return r;
    }
    // A header may claim any size: check it against the bytes the file holds
    // before allocating, so a corrupt size reads as truncation, not as a
    // huge zero-filled buffer or std::bad_alloc.
    const std::streampos payloadStart = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streamoff fileLeft = in.tellg() - payloadStart;
    in.seekg(payloadStart);
    if (!in || fileLeft < 0 || r.header.payloadSize > static_cast<std::uint64_t>(fileLeft)) {
        r.status = ArtifactStatus::Truncated;
        return r;
    }
    r.payload.resize(static_cast<std::size_t>(r.header.payloadSize));
    in.read(reinterpret_cast<char*>(r.payload.data()),
            static_cast<std::streamsize>(r.payload.size()));
    if (in.gcount() != static_cast<std::streamsize>(r.payload.size())) {
        r.payload.clear();
        r.status = ArtifactStatus::Truncated;
        return r;
    }
    if (crc32(r.payload.data(), r.payload.size()) != r.header.crc) {
        r.payload.clear();
        r.status = ArtifactStatus::BadCrc;
        return r;
    }
    r.status = ArtifactStatus::Ok;
    PHLOGON_COUNT_METRIC("artifact.reads");
    PHLOGON_ADD_METRIC("artifact.bytesRead", kHeaderSize + r.payload.size());
    return r;
}

ArtifactProbe probeArtifactFile(const std::filesystem::path& path) {
    ArtifactProbe p;
    const ArtifactReadResult r = readArtifactFile(path);
    p.status = r.status;
    p.header = r.header;
    p.crcOk = r.status == ArtifactStatus::Ok;
    return p;
}

}  // namespace phlogon::io
