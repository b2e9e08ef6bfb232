#include "store/serialize.h"

#include <cstring>

#include "util/hash.h"

namespace psph::store {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'P', 'H'};
constexpr std::size_t kHeaderSize = 16;   // magic + version + kind + size
constexpr std::size_t kChecksumSize = 8;

[[noreturn]] void fail(const std::string& what) {
  throw SerializationError(what);
}

}  // namespace

// ---- ByteWriter ----

void ByteWriter::u16(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

void ByteWriter::blob(const void* data, std::size_t size) {
  u64(size);
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

// ---- ByteReader ----

void ByteReader::need(std::size_t n) const {
  if (size_ - pos_ < n) fail("truncated input: need " + std::to_string(n) +
                             " bytes, have " + std::to_string(size_ - pos_));
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) {
    v |= static_cast<std::uint32_t>(data_[pos_ + b]) << (8 * b);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(data_[pos_ + b]) << (8 * b);
  }
  pos_ += 8;
  return v;
}

std::vector<std::uint8_t> ByteReader::blob() {
  const std::uint64_t size = u64();
  need(size);
  std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + size);
  pos_ += size;
  return out;
}

std::string ByteReader::str() {
  const std::uint64_t size = u64();
  need(size);
  std::string out(reinterpret_cast<const char*>(data_ + pos_), size);
  pos_ += size;
  return out;
}

void ByteReader::expect_done(const char* context) const {
  if (pos_ != size_) {
    fail(std::string(context) + ": " + std::to_string(size_ - pos_) +
         " trailing bytes");
  }
}

// ---- envelope ----

std::vector<std::uint8_t> seal(PayloadKind kind,
                               const std::vector<std::uint8_t>& payload) {
  ByteWriter out;
  for (char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u16(kFormatVersion);
  out.u16(static_cast<std::uint16_t>(kind));
  out.u64(payload.size());
  std::vector<std::uint8_t> bytes = out.take();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  const std::uint64_t checksum =
      util::hash_bytes(bytes.data() + 4, bytes.size() - 4);
  ByteWriter tail;
  tail.u64(checksum);
  const std::vector<std::uint8_t>& t = tail.bytes();
  bytes.insert(bytes.end(), t.begin(), t.end());
  return bytes;
}

std::vector<std::uint8_t> unseal(const std::uint8_t* data, std::size_t size,
                                 PayloadKind expected_kind) {
  if (size < kHeaderSize + kChecksumSize) {
    fail("truncated envelope: " + std::to_string(size) + " bytes");
  }
  if (std::memcmp(data, kMagic, 4) != 0) fail("bad magic: not a PSPH blob");
  ByteReader header(data + 4, kHeaderSize - 4);
  const std::uint16_t version = header.u16();
  if (version < kMinSupportedFormatVersion || version > kFormatVersion) {
    fail("format version mismatch: file has v" + std::to_string(version) +
         ", this build reads v" + std::to_string(kMinSupportedFormatVersion) +
         "..v" + std::to_string(kFormatVersion));
  }
  const std::uint16_t kind = header.u16();
  const std::uint64_t payload_size = header.u64();
  if (size != kHeaderSize + payload_size + kChecksumSize) {
    fail("size mismatch: header claims " + std::to_string(payload_size) +
         " payload bytes, envelope has " +
         std::to_string(size - kHeaderSize - kChecksumSize));
  }
  ByteReader tail(data + size - kChecksumSize, kChecksumSize);
  const std::uint64_t stored_checksum = tail.u64();
  const std::uint64_t actual_checksum =
      util::hash_bytes(data + 4, size - 4 - kChecksumSize);
  if (stored_checksum != actual_checksum) {
    fail("checksum mismatch: payload corrupt");
  }
  if (kind != static_cast<std::uint16_t>(expected_kind)) {
    fail("payload kind mismatch: file has kind " + std::to_string(kind) +
         ", expected " +
         std::to_string(static_cast<std::uint16_t>(expected_kind)));
  }
  return std::vector<std::uint8_t>(data + kHeaderSize,
                                   data + kHeaderSize + payload_size);
}

std::vector<std::uint8_t> unseal(const std::vector<std::uint8_t>& bytes,
                                 PayloadKind expected_kind) {
  return unseal(bytes.data(), bytes.size(), expected_kind);
}

// ---- per-type encodings ----

void encode_bigint(ByteWriter& out, const math::BigInt& value) {
  out.u8(value.is_negative() ? 1 : 0);
  const std::vector<std::uint32_t>& limbs = value.limbs();
  out.u32(static_cast<std::uint32_t>(limbs.size()));
  for (std::uint32_t limb : limbs) out.u32(limb);
}

math::BigInt decode_bigint(ByteReader& in) {
  const std::uint8_t negative = in.u8();
  if (negative > 1) fail("BigInt sign byte out of range");
  const std::uint32_t count = in.u32();
  std::vector<std::uint32_t> limbs;
  limbs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) limbs.push_back(in.u32());
  if (!limbs.empty() && limbs.back() == 0) {
    fail("BigInt magnitude has a leading zero limb");
  }
  return math::BigInt::from_limbs(negative != 0, std::move(limbs));
}

void encode_simplex(ByteWriter& out, const topology::Simplex& s) {
  const std::vector<topology::VertexId>& vertices = s.vertices();
  out.u32(static_cast<std::uint32_t>(vertices.size()));
  for (topology::VertexId v : vertices) out.u32(v);
}

topology::Simplex decode_simplex(ByteReader& in) {
  const std::uint32_t count = in.u32();
  std::vector<topology::VertexId> vertices;
  vertices.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) vertices.push_back(in.u32());
  // Simplex's constructor re-sorts and rejects duplicates, so a tampered
  // vertex list cannot produce an out-of-contract object.
  return topology::Simplex(std::move(vertices));
}

void encode_complex(ByteWriter& out, const topology::SimplicialComplex& k) {
  const std::vector<topology::Simplex> facets = k.facets();
  out.u64(facets.size());
  for (const topology::Simplex& facet : facets) encode_simplex(out, facet);
}

topology::SimplicialComplex decode_complex(ByteReader& in) {
  const std::uint64_t count = in.u64();
  topology::SimplicialComplex k;
  for (std::uint64_t i = 0; i < count; ++i) {
    k.add_facet(decode_simplex(in));
  }
  return k;
}

void encode_homology_report(ByteWriter& out,
                            const topology::HomologyReport& report) {
  out.u8(report.nonempty ? 1 : 0);
  out.u8(report.exact ? 1 : 0);
  out.u32(static_cast<std::uint32_t>(report.reduced_betti.size()));
  for (long long betti : report.reduced_betti) out.i64(betti);
  out.u32(static_cast<std::uint32_t>(report.torsion.size()));
  for (const std::vector<std::string>& dim : report.torsion) {
    out.u32(static_cast<std::uint32_t>(dim.size()));
    for (const std::string& coefficient : dim) {
      // Torsion coefficients are decimal renderings of BigInts; store the
      // exact limbs so round-trips cannot drift through string parsing.
      encode_bigint(out, math::BigInt(coefficient));
    }
  }
}

topology::HomologyReport decode_homology_report(ByteReader& in) {
  topology::HomologyReport report;
  report.nonempty = in.u8() != 0;
  report.exact = in.u8() != 0;
  const std::uint32_t betti_count = in.u32();
  report.reduced_betti.reserve(betti_count);
  for (std::uint32_t i = 0; i < betti_count; ++i) {
    report.reduced_betti.push_back(in.i64());
  }
  const std::uint32_t torsion_dims = in.u32();
  report.torsion.reserve(torsion_dims);
  for (std::uint32_t d = 0; d < torsion_dims; ++d) {
    const std::uint32_t coefficients = in.u32();
    std::vector<std::string> dim;
    dim.reserve(coefficients);
    for (std::uint32_t i = 0; i < coefficients; ++i) {
      dim.push_back(decode_bigint(in).to_string());
    }
    report.torsion.push_back(std::move(dim));
  }
  return report;
}

void encode_connectivity_check(ByteWriter& out,
                               const core::ConnectivityCheck& check) {
  out.i32(check.expected);
  out.i32(check.measured);
  out.u8(check.satisfied ? 1 : 0);
  out.u64(check.facet_count);
  out.u64(check.vertex_count);
  out.i32(check.dimension);
}

core::ConnectivityCheck decode_connectivity_check(ByteReader& in) {
  core::ConnectivityCheck check;
  check.expected = in.i32();
  check.measured = in.i32();
  check.satisfied = in.u8() != 0;
  check.facet_count = in.u64();
  check.vertex_count = in.u64();
  check.dimension = in.i32();
  return check;
}

void encode_decision(ByteWriter& out, const DecisionRecord& record) {
  out.u32(record.engine_version);
  out.str(record.model);
  out.i32(record.processes);
  out.i32(record.f);
  out.i32(record.k);
  out.i32(record.mu);
  out.i32(record.rounds);
  out.u8(record.solvable ? 1 : 0);
  out.u8(record.exhausted ? 1 : 0);
  out.u64(record.protocol_facets);
  out.u64(record.protocol_vertices);
  out.u64(record.witness.size());
  for (const auto& [vertex, value] : record.witness) {
    out.u64(vertex);
    out.i64(value);
  }
}

DecisionRecord decode_decision(ByteReader& in) {
  DecisionRecord record;
  record.engine_version = in.u32();
  record.model = in.str();
  record.processes = in.i32();
  record.f = in.i32();
  record.k = in.i32();
  record.mu = in.i32();
  record.rounds = in.i32();
  record.solvable = in.u8() != 0;
  record.exhausted = in.u8() != 0;
  record.protocol_facets = in.u64();
  record.protocol_vertices = in.u64();
  const std::uint64_t count = in.u64();
  if (count > in.remaining() / 16) {
    throw SerializationError("decision witness count exceeds payload");
  }
  record.witness.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t vertex = in.u64();
    const std::int64_t value = in.i64();
    record.witness.emplace_back(vertex, value);
  }
  return record;
}

// ---- sealed convenience round-trips ----

namespace {

template <typename T, typename Encode>
std::vector<std::uint8_t> seal_with(PayloadKind kind, const T& value,
                                    Encode encode) {
  ByteWriter payload;
  encode(payload, value);
  return seal(kind, payload.bytes());
}

template <typename Decode>
auto unseal_with(const std::vector<std::uint8_t>& bytes, PayloadKind kind,
                 const char* context, Decode decode) {
  const std::vector<std::uint8_t> payload = unseal(bytes, kind);
  ByteReader in(payload);
  auto value = decode(in);
  in.expect_done(context);
  return value;
}

}  // namespace

std::vector<std::uint8_t> serialize_simplex(const topology::Simplex& s) {
  return seal_with(PayloadKind::kSimplex, s, encode_simplex);
}

topology::Simplex deserialize_simplex(const std::vector<std::uint8_t>& bytes) {
  return unseal_with(bytes, PayloadKind::kSimplex, "simplex", decode_simplex);
}

std::vector<std::uint8_t> serialize_complex(
    const topology::SimplicialComplex& k) {
  return seal_with(PayloadKind::kComplex, k, encode_complex);
}

topology::SimplicialComplex deserialize_complex(
    const std::vector<std::uint8_t>& bytes) {
  return unseal_with(bytes, PayloadKind::kComplex, "complex", decode_complex);
}

std::vector<std::uint8_t> serialize_homology_report(
    const topology::HomologyReport& report) {
  return seal_with(PayloadKind::kHomologyReport, report,
                   encode_homology_report);
}

topology::HomologyReport deserialize_homology_report(
    const std::vector<std::uint8_t>& bytes) {
  return unseal_with(bytes, PayloadKind::kHomologyReport, "homology report",
                     decode_homology_report);
}

std::vector<std::uint8_t> serialize_connectivity_check(
    const core::ConnectivityCheck& check) {
  return seal_with(PayloadKind::kConnectivityCheck, check,
                   encode_connectivity_check);
}

core::ConnectivityCheck deserialize_connectivity_check(
    const std::vector<std::uint8_t>& bytes) {
  return unseal_with(bytes, PayloadKind::kConnectivityCheck,
                     "connectivity check", decode_connectivity_check);
}

std::vector<std::uint8_t> serialize_decision(const DecisionRecord& record) {
  return seal_with(PayloadKind::kDecision, record, encode_decision);
}

DecisionRecord deserialize_decision(const std::vector<std::uint8_t>& bytes) {
  return unseal_with(bytes, PayloadKind::kDecision, "decision record",
                     decode_decision);
}

}  // namespace psph::store
