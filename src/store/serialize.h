#pragma once

// Versioned binary serialization for the result store (DESIGN §5).
//
// Every durable artifact is a *sealed envelope*:
//
//   offset 0   "PSPH"                  4-byte magic
//          4   format version          u16 LE   (kFormatVersion)
//          6   payload kind            u16 LE   (PayloadKind)
//          8   payload size            u64 LE
//         16   payload                 size bytes
//       16+n   checksum                u64 LE, util::hash_bytes over
//                                      bytes [4, 16+n) — version, kind,
//                                      size and payload, so a flipped bit
//                                      anywhere but the magic is caught
//
// All integers are little-endian and fixed width; nothing in the format
// depends on std::hash, host endianness is normalized on write/read, and a
// payload round-trips bit-exactly (including BigInt torsion coefficients,
// which travel as raw 32-bit limbs). Truncated, corrupt, wrong-magic,
// wrong-version, and wrong-kind inputs all throw SerializationError with a
// message naming the defect — a cache must fail loudly, never return a
// plausible-looking wrong answer.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/theorems.h"
#include "math/bigint.h"
#include "topology/complex.h"
#include "topology/homology.h"
#include "topology/simplex.h"

namespace psph::store {

/// Bumped whenever any encoding below changes shape. Envelopes older than
/// kMinSupportedFormatVersion are rejected (the cache recomputes rather than
/// misinterpreting bytes); versions in [kMinSupportedFormatVersion,
/// kFormatVersion] load, because none of the existing payload encodings
/// changed between them — v2 only *adds* the frontier-chunk kind and stamps
/// ResultStore keys so orbit-mode results never alias full-mode ones.
inline constexpr std::uint16_t kFormatVersion = 2;
inline constexpr std::uint16_t kMinSupportedFormatVersion = 1;

enum class PayloadKind : std::uint16_t {
  kRawBytes = 0,
  kSimplex = 1,
  kComplex = 2,
  kHomologyReport = 3,
  kConnectivityCheck = 4,
  kAgreementCheck = 5,  // retired (the seed backtracker's verdict); never reuse
  kBigInt = 6,
  kCacheEntry = 7,    // store.h: key blob + sealed result
  kSchedule = 8,      // check/schedule.h: recorded adversary schedule
  kFrontierChunk = 9,  // frontier.h: spilled construction frontier level
  kDecision = 10,      // solve/decide.h: memoized solvability verdict
};

/// A decided solvability query (solve/decide.h), the payload behind
/// PayloadKind::kDecision. Holds only deterministic fields — the verdict,
/// the canonical (lex-min) witness, and the instance parameters echoed for
/// defence-in-depth on load. Never node counts or other search stats, so a
/// cached record is bit-identical to a recomputed one.
struct DecisionRecord {
  std::uint32_t engine_version = 1;
  std::string model;  // "async" | "sync" | "semisync" | "iis"
  std::int32_t processes = 0;  // n+1
  std::int32_t f = 0;
  std::int32_t k = 1;
  std::int32_t mu = 0;
  std::int32_t rounds = 1;
  bool solvable = false;
  bool exhausted = false;
  std::uint64_t protocol_facets = 0;
  std::uint64_t protocol_vertices = 0;
  /// Canonical decision map when solvable: (vertex id, decided value) per
  /// protocol vertex, sorted by vertex id.
  std::vector<std::pair<std::uint64_t, std::int64_t>> witness;

  bool operator==(const DecisionRecord&) const = default;
};

/// Thrown on any malformed input to a decoder.
class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// u64 length prefix + raw bytes.
  void blob(const void* data, std::size_t size);
  void str(const std::string& s) { blob(s.data(), s.size()); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over a borrowed buffer; every
/// overrun throws SerializationError("truncated ...").
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::vector<std::uint8_t> blob();
  std::string str();

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  /// Throws unless the buffer was consumed exactly.
  void expect_done(const char* context) const;

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- envelope ----

/// Wraps a payload in the magic/version/kind/size/checksum envelope.
std::vector<std::uint8_t> seal(PayloadKind kind,
                               const std::vector<std::uint8_t>& payload);

/// Validates an envelope and returns the payload. Throws SerializationError
/// on bad magic, version or kind mismatch, size mismatch, truncation, or a
/// checksum failure.
std::vector<std::uint8_t> unseal(const std::uint8_t* data, std::size_t size,
                                 PayloadKind expected_kind);
std::vector<std::uint8_t> unseal(const std::vector<std::uint8_t>& bytes,
                                 PayloadKind expected_kind);

// ---- per-type encodings (raw payloads; pair with seal/unseal for disk) ----

void encode_bigint(ByteWriter& out, const math::BigInt& value);
math::BigInt decode_bigint(ByteReader& in);

void encode_simplex(ByteWriter& out, const topology::Simplex& s);
topology::Simplex decode_simplex(ByteReader& in);

/// Canonical facet encoding: facet count then each facet in the complex's
/// deterministic sorted order. Equal complexes encode to equal bytes, which
/// is what makes this usable inside cache keys.
void encode_complex(ByteWriter& out, const topology::SimplicialComplex& k);
topology::SimplicialComplex decode_complex(ByteReader& in);

void encode_homology_report(ByteWriter& out,
                            const topology::HomologyReport& report);
topology::HomologyReport decode_homology_report(ByteReader& in);

void encode_connectivity_check(ByteWriter& out,
                               const core::ConnectivityCheck& check);
core::ConnectivityCheck decode_connectivity_check(ByteReader& in);

void encode_decision(ByteWriter& out, const DecisionRecord& record);
DecisionRecord decode_decision(ByteReader& in);

// ---- sealed convenience round-trips ----

std::vector<std::uint8_t> serialize_simplex(const topology::Simplex& s);
topology::Simplex deserialize_simplex(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> serialize_complex(
    const topology::SimplicialComplex& k);
topology::SimplicialComplex deserialize_complex(
    const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> serialize_homology_report(
    const topology::HomologyReport& report);
topology::HomologyReport deserialize_homology_report(
    const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> serialize_connectivity_check(
    const core::ConnectivityCheck& check);
core::ConnectivityCheck deserialize_connectivity_check(
    const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> serialize_decision(const DecisionRecord& record);
DecisionRecord deserialize_decision(const std::vector<std::uint8_t>& bytes);

}  // namespace psph::store
