#pragma once
// Payload codecs for the result structs that the artifact cache stores, on
// the binary artifact container (io/serialize.hpp).
//
// Encoding and decoding are exact: doubles travel as IEEE-754 bit patterns,
// so  decode(encode(x)) == x  holds bitwise for every field, which is what
// the round-trip tests assert and what makes cached extractions
// substitutable for freshly computed ones.
//
// Each encode/decode pair works on raw payload bytes; the ArtifactCache
// stores a Characterization (PSS + PPV) as CHAR under its content-hash key
// (io/model_cache.hpp), the only type it stores.
// Decoding is total: any truncation or inconsistent length yields
// std::nullopt, and callers recompute.

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/ppv.hpp"
#include "analysis/pss.hpp"
#include "io/serialize.hpp"
#include "numeric/counters.hpp"

namespace phlogon::io {

// ---- SolverCounters (sub-encoder shared by several payloads) --------------
void encodeCounters(BinaryWriter& w, const num::SolverCounters& c);
bool decodeCounters(BinaryReader& r, num::SolverCounters& c);

// ---- PssResult ------------------------------------------------------------
std::vector<std::uint8_t> encodePssResult(const an::PssResult& pss);
std::optional<an::PssResult> decodePssResult(const std::vector<std::uint8_t>& payload);

// ---- PpvResult ------------------------------------------------------------
std::vector<std::uint8_t> encodePpvResult(const an::PpvResult& ppv);
std::optional<an::PpvResult> decodePpvResult(const std::vector<std::uint8_t>& payload);

// ---- characterization bundle (PSS + PPV, one extraction artifact) ---------
struct Characterization {
    an::PssResult pss;
    an::PpvResult ppv;
};
std::vector<std::uint8_t> encodeCharacterization(const Characterization& c);
std::optional<Characterization> decodeCharacterization(const std::vector<std::uint8_t>& payload);

}  // namespace phlogon::io
