#pragma once
// Versioned, endian-explicit binary artifact format.
//
// Every persistent artifact (cached characterizations, the daemon's job
// checkpoints) is a single file with a fixed header:
//
//   offset  size  field
//        0     4  magic "PHLG"
//        4     4  format version (u32, little-endian) — kFormatVersion
//        8     4  payload type (fourcc, e.g. "CHAR")
//       12     8  payload size in bytes (u64)
//       20     4  CRC32 of the payload bytes
//       24     -  payload
//
// All multi-byte integers are little-endian regardless of host; doubles
// travel as the little-endian bytes of their IEEE-754 bit pattern
// (std::bit_cast), so save→load round-trips are bitwise exact and files are
// portable across hosts.  Scalars are assembled from their bytes; a double
// array moves with one bulk copy on a little-endian host, where its bytes in
// memory are already the wire bytes, and element by element elsewhere.
//
// Publication is atomic: writeArtifactFile writes to "<path>.tmp.<pid>.<n>",
// where n is a process-wide counter so concurrent writers of one path never
// share a temp file, and renames over the destination, so readers never
// observe a half-written artifact and a crash mid-write leaves any previous
// version intact.
// Readers verify magic, version, size and CRC and report a typed status —
// callers (the ArtifactCache, the daemon's checkpoint loads) treat anything
// but Ok as "absent" and recompute rather than fail.  Readers are total: a
// length field larger than the bytes that follow is reported as truncation
// before anything is allocated for it.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "numeric/matrix.hpp"

namespace phlogon::io {

/// Bumped whenever a payload layout or the result of the same options changes
/// (3: the PSS time origin moved; 4: the warm-up stops once it settles and
/// shooting steps start from an extrapolated point); part of every cache
/// key, so a version bump invalidates all previously cached artifacts at once.
inline constexpr std::uint32_t kFormatVersion = 4;

inline constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// Payload type tags: the cache's characterizations (io/artifact.hpp) and
/// the daemon's job checkpoints (io/checkpoint.hpp).
inline constexpr std::uint32_t kTypeCharacterization = fourcc('C', 'H', 'A', 'R');
inline constexpr std::uint32_t kTypeMcCheckpoint = fourcc('M', 'C', 'K', 'P');
inline constexpr std::uint32_t kTypeFsmCheckpoint = fourcc('F', 'C', 'K', 'P');

/// Human-readable name of a type tag ("CHAR", or "????" when unknown).
std::string typeName(std::uint32_t type);

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte range,
/// eight bytes per step (slicing-by-8).
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

// ---- payload encoding -----------------------------------------------------

/// Appends primitives to a byte buffer in the canonical little-endian layout.
class BinaryWriter {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v);
    void str(const std::string& s);
    void vec(const num::Vec& v);
    /// A u64 length, then the bytes as they are (a nested payload).
    void blob(const std::vector<std::uint8_t>& b);
    void vecList(const std::vector<num::Vec>& vs);
    void strList(const std::vector<std::string>& ss);

    const std::vector<std::uint8_t>& bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    std::vector<std::uint8_t> buf_;
};

/// Reads the same layout back.  All getters return false (leaving the output
/// untouched) on truncation; callers bail out and treat the artifact as
/// corrupt instead of reading garbage.
class BinaryReader {
public:
    BinaryReader() = default;
    BinaryReader(const std::uint8_t* data, std::size_t n) : p_(data), end_(data + n) {}
    explicit BinaryReader(const std::vector<std::uint8_t>& b) : BinaryReader(b.data(), b.size()) {}

    bool u8(std::uint8_t& v);
    bool u32(std::uint32_t& v);
    bool u64(std::uint64_t& v);
    bool f64(double& v);
    bool str(std::string& s);
    bool vec(num::Vec& v);
    /// What BinaryWriter::blob wrote: `sub` reads those bytes in place.
    bool blob(BinaryReader& sub);
    bool vecList(std::vector<num::Vec>& vs);
    bool strList(std::vector<std::string>& ss);
    bool atEnd() const { return p_ == end_; }
    std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

private:
    const std::uint8_t* p_ = nullptr;
    const std::uint8_t* end_ = nullptr;
};

// ---- artifact container ---------------------------------------------------

enum class ArtifactStatus {
    Ok,
    IoError,      ///< file missing / unreadable / short header
    BadMagic,     ///< not an artifact file
    BadVersion,   ///< written by an incompatible format version
    Truncated,    ///< payload shorter than the header claims
    BadCrc,       ///< payload bytes corrupted
    WrongType,    ///< valid artifact of a different payload type
};

std::string statusName(ArtifactStatus s);

struct ArtifactHeader {
    std::uint32_t version = 0;
    std::uint32_t type = 0;
    std::uint64_t payloadSize = 0;
    std::uint32_t crc = 0;
};

inline constexpr std::size_t kHeaderSize = 24;

/// Write `payload` as an artifact of `type` at `path`, atomically
/// (temp + rename).  Returns false on any filesystem error (never throws).
bool writeArtifactFile(const std::filesystem::path& path, std::uint32_t type,
                       const std::vector<std::uint8_t>& payload);

struct ArtifactReadResult {
    ArtifactStatus status = ArtifactStatus::IoError;
    ArtifactHeader header;
    std::vector<std::uint8_t> payload;  ///< filled only when status == Ok
    bool ok() const { return status == ArtifactStatus::Ok; }
};

/// Read and fully validate an artifact.  `expectedType` 0 accepts any type.
ArtifactReadResult readArtifactFile(const std::filesystem::path& path,
                                    std::uint32_t expectedType = 0);

/// Header + CRC check without keeping the payload (the inspection tool).
/// `crcOk` is meaningful only when the status is Ok or BadCrc.
struct ArtifactProbe {
    ArtifactStatus status = ArtifactStatus::IoError;
    ArtifactHeader header;
    bool crcOk = false;
};
ArtifactProbe probeArtifactFile(const std::filesystem::path& path);

}  // namespace phlogon::io
